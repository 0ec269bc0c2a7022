#pragma once
// Bulk recursive-forwarder plane for million-host worlds: one
// ForwarderBank serves every recursive forwarder of a virtual shard as
// dense index-addressed rows instead of one heap-allocated
// RecursiveForwarder node (~300 B + cache + arenas each) per host.
//
// Behavioural contract: a bank member is a cacheless recursive
// forwarder — it relays the client's question upstream from its own
// address, matches the upstream response by (port, txid), restores the
// client txid, applies the member's middlebox knobs (rewrite / strip),
// and answers the client from the address the query arrived on. The
// census classifies members exactly like RecursiveForwarder nodes
// (caching never matters for a census: each member is probed once).
//
// Shard safety: the topology builder creates one bank per virtual
// shard, so a bank's members always land on one execution shard
// together — no cross-shard state. Upstream (port, txid) tuples are
// derived from the member index alone, so the packet bytes are
// independent of cross-member event interleaving and byte-identical
// for every shard count.
//
// Packet path: datagrams are decoded into one WireArena and both relays
// encode views into it (the client's question under the member's
// tuple; the upstream answer under the client's ID, see
// relayed_answer), so a warmed bank relays without allocating.

#include <cstdint>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/codec.hpp"
#include "netsim/sim.hpp"
#include "nodes/forwarder.hpp"

namespace odns::nodes {

class ForwarderBank final : public netsim::App {
 public:
  struct MemberConfig {
    util::Ipv4 addr;
    util::Ipv4 upstream;
    util::Ipv4 rewrite_target{};
    bool rewrite_answers = false;
    bool strip_second_record = false;
  };

  ForwarderBank(netsim::Simulator& sim,
                util::Duration upstream_timeout = util::Duration::seconds(5));

  /// Registers a member host (already in the network, announcing
  /// `mc.addr`) and binds this bank as its port-53 + wildcard app.
  void add_member(netsim::HostId host, const MemberConfig& mc);
  /// Builds the address lookup index. Call once after the last
  /// add_member and before the first packet.
  void seal();

  void on_datagram(const netsim::Datagram& dgram) override;

  [[nodiscard]] std::size_t member_count() const { return addr_.size(); }
  [[nodiscard]] const ForwarderStats& stats() const { return stats_; }
  /// Current in-flight upstream queries (bounded by the probe window,
  /// not the member count: entries die on response or expiry sweep).
  [[nodiscard]] std::size_t pending() const { return pending_count_; }
  [[nodiscard]] std::size_t peak_pending() const { return peak_pending_; }

 private:
  // One upstream tuple per member query, derived from the member index
  // and its 8-bit in-flight sequence — never from shared mutable state.
  [[nodiscard]] static std::uint32_t tuple_of(std::uint32_t member,
                                              std::uint8_t seq) {
    return member * 256u + seq;
  }

  static constexpr std::uint32_t kFree = 0xFFFFFFFFu;

  /// One in-flight upstream query, keyed by its tuple index g.
  struct Pending {
    std::uint32_t g = kFree;
    std::uint32_t member = 0;
    util::Ipv4 client;
    std::uint16_t client_port = 0;
    std::uint16_t client_txid = 0;
    util::SimTime deadline;
  };

  [[nodiscard]] std::size_t member_of(util::Ipv4 addr) const;
  void handle_query(const netsim::Datagram& dgram, std::size_t member,
                    const dnswire::MessageView& msg);
  void handle_response(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg);
  void sweep_expired();

  // The pending table: open addressing over g with linear probing and
  // backward-shift deletion, so entries live in one flat array (no
  // per-query node) sized by the in-flight window, not the members.
  [[nodiscard]] std::size_t home_of(std::uint32_t g) const;
  /// The slot holding `g`, or the free slot where it would go.
  [[nodiscard]] std::size_t slot_of(std::uint32_t g) const;
  Pending& insert_slot(std::uint32_t g);
  void erase_slot(std::size_t slot);

  netsim::Simulator* sim_;
  util::Duration upstream_timeout_;

  // Member rows (SoA: the hot lookup path touches only addr_).
  std::vector<util::Ipv4> addr_;
  std::vector<util::Ipv4> upstream_;
  std::vector<util::Ipv4> rewrite_target_;
  std::vector<netsim::HostId> host_;
  std::vector<std::uint8_t> seq_;
  std::vector<std::uint8_t> flags_;  // bit 0: rewrite, bit 1: strip
  /// Member indices ordered by address (lookup index; built by seal()).
  std::vector<std::uint32_t> by_addr_;
  bool sealed_ = false;

  std::vector<Pending> pending_;  // power-of-two capacity, sized by seal()
  std::size_t pending_count_ = 0;
  std::size_t sweep_at_ = 64;
  dnswire::WireArena arena_;  // decode + encode, reset per datagram
  std::size_t peak_pending_ = 0;
  ForwarderStats stats_;
};

}  // namespace odns::nodes

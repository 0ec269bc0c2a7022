#pragma once
// Shared base for DNS speakers living on simulated hosts: datagram
// parsing, reply plumbing, per-node counters.
//
// The receive path runs on the arena codec (dnswire/codec.hpp): each
// datagram is decoded into the rx arena of the thread's leased
// ArenaSet (dnswire/arena.hpp), offered to the subclass through
// on_message_view() (the zero-allocation fast path), and only
// materialized into a heap Message when the subclass declines.
// Replies encode through the set's tx arena. A node owns no arena.

#include <cstdint>
#include <optional>

#include "dnswire/arena.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "netsim/sim.hpp"

namespace odns::nodes {

inline constexpr std::uint16_t kDnsPort = 53;

struct NodeCounters {
  std::uint64_t datagrams_in = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t queries_in = 0;
  std::uint64_t responses_in = 0;
  std::uint64_t responses_out = 0;
  std::uint64_t queries_out = 0;
  std::uint64_t refused = 0;
  std::uint64_t rate_limited = 0;
  std::uint64_t servfail = 0;
};

class DnsNode : public netsim::App {
 public:
  DnsNode(netsim::Simulator& sim, netsim::HostId host)
      : sim_(&sim), host_(host) {}

  [[nodiscard]] netsim::HostId host() const { return host_; }
  [[nodiscard]] util::Ipv4 address() const {
    return sim_->net().primary_addr(host_);
  }
  [[nodiscard]] const NodeCounters& counters() const { return counters_; }

  void on_datagram(const netsim::Datagram& dgram) final;

 protected:
  /// Fast-path dispatch: `msg` views the datagram payload + rx arena
  /// and dies when this call returns. Return true to consume the
  /// message; false falls back to on_message() with a materialized
  /// heap copy. Default: always fall back.
  virtual bool on_message_view(const netsim::Datagram& dgram,
                               const dnswire::MessageView& msg) {
    (void)dgram;
    (void)msg;
    return false;
  }

  /// Heap-model dispatch target; `msg` is the successfully parsed
  /// payload, owned by the callee. Default: ignore (for nodes that
  /// consume every message on the view path).
  virtual void on_message(const netsim::Datagram&, dnswire::Message) {}

  netsim::Simulator& sim() { return *sim_; }

  /// Sends `msg` from this host. `src_override` supports service
  /// (anycast) reply addresses and transparent-spoof behaviour.
  void send_message(util::Ipv4 dst, std::uint16_t src_port,
                    std::uint16_t dst_port, const dnswire::Message& msg,
                    std::optional<util::Ipv4> src_override = std::nullopt);

  /// View-level send: encodes through the tx arena, bytes identical to
  /// send_message() on the materialized view. `msg` must not be built
  /// on the tx arena (it is reset here); use scratch_arena().
  void send_view(util::Ipv4 dst, std::uint16_t src_port,
                 std::uint16_t dst_port, const dnswire::MessageView& msg,
                 std::optional<util::Ipv4> src_override = std::nullopt);

  /// Replies to the datagram's source (swapped ports).
  void reply(const netsim::Datagram& dgram, const dnswire::Message& msg,
             std::optional<util::Ipv4> src_override = std::nullopt);
  void reply_view(const netsim::Datagram& dgram,
                  const dnswire::MessageView& msg,
                  std::optional<util::Ipv4> src_override = std::nullopt);

  /// The thread's scratch arena, for building reply views inside a
  /// handler (reset at every handler entry — do not hold views across
  /// messages). A timer handler that builds views takes a
  /// dnswire::ArenaLease first.
  static dnswire::WireArena& scratch_arena() {
    return dnswire::ArenaSet::this_thread().scratch;
  }

  NodeCounters counters_;

 private:
  void send_encoded(util::Ipv4 dst, std::uint16_t src_port,
                    std::uint16_t dst_port, const dnswire::MessageView& msg,
                    std::optional<util::Ipv4> src_override);

  netsim::Simulator* sim_;
  netsim::HostId host_;
};

}  // namespace odns::nodes

#pragma once
// The two forwarder species the paper distinguishes.
//
// RecursiveForwarder: an application-level relay. It replaces the
// client's source address with its own, so responses flow back through
// it — it can cache and (mis)behave like a middlebox. It relays on
// decoded views (relayed_answer), like ForwarderBank.
//
// TransparentForwarder: an IP-level relay that preserves the client's
// source address. The response bypasses it entirely. It is implemented
// as a netsim port-redirect rule; this class is the bookkeeping wrapper
// that installs the rule and exposes relay statistics.

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "nodes/cache.hpp"
#include "nodes/dns_node.hpp"

namespace odns::nodes {

struct ForwarderConfig {
  util::Ipv4 upstream;  // resolver (or next forwarder) to relay to
  bool cache_responses = true;
  util::Duration upstream_timeout = util::Duration::seconds(5);
  /// Middlebox misbehaviour knobs used to validate the classifier's
  /// control-record check:
  bool rewrite_answers = false;        // DNS redirection (ads/censorship)
  util::Ipv4 rewrite_target{};         // address injected when rewriting
  bool strip_second_record = false;    // drops the control record
};

struct ForwarderStats {
  std::uint64_t client_queries = 0;
  std::uint64_t cache_answers = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t upstream_responses = 0;
  std::uint64_t expired = 0;
};

class RecursiveForwarder : public DnsNode {
 public:
  RecursiveForwarder(netsim::Simulator& sim, netsim::HostId host,
                     ForwarderConfig cfg);

  void start();

  [[nodiscard]] const ForwarderStats& stats() const { return fstats_; }
  [[nodiscard]] const DnsCache& cache() const { return cache_; }

 protected:
  bool on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg) override;

 private:
  struct Pending {
    util::Ipv4 client;
    std::uint16_t client_port = 0;
    std::uint16_t client_txid = 0;
    util::Ipv4 arrival_dst;
    dnswire::Question question;
    util::SimTime deadline;
  };

  void handle_query(const netsim::Datagram& dgram,
                    const dnswire::MessageView& msg);
  void handle_response(const netsim::Datagram& dgram,
                       const dnswire::MessageView& msg);

  static std::uint32_t key(std::uint16_t port, std::uint16_t txid) {
    return (std::uint32_t{port} << 16) | txid;
  }

  ForwarderConfig cfg_;
  DnsCache cache_;
  ForwarderStats fstats_;
  std::unordered_map<std::uint32_t, Pending> pending_;
  std::uint16_t next_port_ = 32768;
  std::uint16_t next_txid_ = 1;
};

/// The answer a recursive forwarder relays: the upstream response
/// itself under the client's ID, with the middlebox knobs applied to an
/// arena copy of its answers — `rewrite_target` (when set) replaces
/// every A record's address, `strip` keeps only the first answer.
dnswire::MessageView relayed_answer(dnswire::WireArena& arena,
                                    const dnswire::MessageView& upstream,
                                    std::uint16_t client_id,
                                    std::optional<util::Ipv4> rewrite_target,
                                    bool strip);

/// Bookkeeping wrapper around the netsim transparent-redirect rule.
class TransparentForwarder {
 public:
  TransparentForwarder(netsim::Simulator& sim, netsim::HostId host,
                       util::Ipv4 resolver)
      : sim_(&sim), host_(host), resolver_(resolver) {}

  /// Installs the port-53 redirect on the device.
  void install() { sim_->add_port_redirect(host_, kDnsPort, resolver_); }
  void uninstall() { sim_->remove_port_redirect(host_, kDnsPort); }

  [[nodiscard]] netsim::HostId host() const { return host_; }
  [[nodiscard]] util::Ipv4 address() const {
    return sim_->net().primary_addr(host_);
  }
  [[nodiscard]] util::Ipv4 resolver() const { return resolver_; }
  [[nodiscard]] std::uint64_t relayed() const {
    return sim_->redirect_relays(host_);
  }

 private:
  netsim::Simulator* sim_;
  netsim::HostId host_;
  util::Ipv4 resolver_;
};

}  // namespace odns::nodes

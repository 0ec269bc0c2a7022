#pragma once
// DNSRoute++ (§5): a traceroute that sends DNS queries and — unlike
// classic traceroute — keeps incrementing the TTL after the target is
// reached. A transparent forwarder's IP stack answers TTL-exceeded when
// the TTL dies on the device, but relays the query onward otherwise, so
// probes with larger TTLs expire *behind* the forwarder and reveal the
// path segment between forwarder and recursive resolver.
//
// Relies on the hop-accurate TTL/ICMP semantics of netsim (sim.hpp);
// docs/architecture.md diagrams the relay behavior being exploited.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dnswire/codec.hpp"
#include "netsim/sim.hpp"
#include "registry/registry.hpp"

namespace odns::dnsroute {

struct DnsrouteConfig {
  dnswire::Name qname;
  int max_ttl = 30;
  std::uint64_t probes_per_second = 50000;
  util::Duration settle = util::Duration::seconds(10);
};

struct Hop {
  bool responded = false;
  util::Ipv4 addr;  // ICMP Time-Exceeded source for this TTL
};

struct TracePath {
  util::Ipv4 target;
  std::vector<Hop> hops;  // index 0 = TTL 1
  /// TTL at which the target itself answered TTL-exceeded (-1: never).
  int target_distance = -1;
  bool got_answer = false;
  util::Ipv4 resolver;  // DNS answer source (the forwarder's resolver)
  int answer_ttl = -1;  // smallest TTL that produced a DNS answer

  /// IP hops from the transparent forwarder to its resolver, counting
  /// the resolver itself (Fig. 6 metric).
  [[nodiscard]] int forwarder_to_resolver_hops() const {
    if (target_distance < 0 || answer_ttl < 0) return -1;
    return answer_ttl - target_distance;
  }

  /// Sanitization (§5): the path is usable when the target was seen,
  /// an answer arrived, and no hop before the answer is missing
  /// (loss/churn produce gaps, which would corrupt hop counts).
  [[nodiscard]] bool complete() const;

  /// Ordered ICMP hop addresses up to (excluding) the answer TTL.
  [[nodiscard]] std::vector<util::Ipv4> hop_addrs() const;
};

/// Probe numbering. A tracer numbers its probes k = 0, 1, 2, ... in
/// send order, and the count keeps running across run() calls. Within
/// one run whose first probe is k0, probe k traces target
/// (k - k0) / max_ttl at TTL (k - k0) % max_ttl + 1: targets in order,
/// TTLs 1..max_ttl each. On the wire, probe k leaves from port
/// 1024 + k % 64512 with TXID 1 + ((k + 1) / 64512) % 65535 — the
/// ports walk 1024..65535, and the send that takes port 65535 already
/// carries the next TXID plane (TXIDs 1..65535, 0 skipped). So:
/// - a DNS answer's (port, TXID) names one probe number exactly (the
///   latest sent with that tuple, once 64512 × 65535 probes wrap);
/// - an ICMP Time-Exceeded quotes only the UDP ports, so it is matched
///   to the latest probe sent from its port.
/// Neither match keeps per-probe state.
class DnsroutePlusPlus : public netsim::App, public netsim::TimerTarget {
 public:
  /// Throws std::invalid_argument when cfg.probes_per_second is 0 or
  /// cfg.max_ttl is outside 1..255.
  DnsroutePlusPlus(netsim::Simulator& sim, netsim::HostId host,
                   DnsrouteConfig cfg);

  /// Probes every target at TTL 1..max_ttl and runs the simulator
  /// until all probes are answered or settled.
  std::vector<TracePath> run(const std::vector<util::Ipv4>& targets);

  /// Answer hook; decodes into the thread's leased rx arena (arena.hpp).
  void on_datagram(const netsim::Datagram& dgram) override;
  /// Probe-pacing timer: sends the probes due now (the tracer's next
  /// probe number onward), then arms the next send instant. One timer
  /// is pending at a time; the words are unused.
  void on_timer(std::uint64_t, std::uint64_t) override;

 private:
  static constexpr std::uint64_t kPortBase = 1024;
  static constexpr std::uint64_t kPorts = 65536 - kPortBase;
  static constexpr std::uint64_t kTxids = 65535;

  void on_icmp(const netsim::Packet& pkt);
  void send_probe(std::uint64_t probe);
  /// Latest probe sent whose number is `residue` modulo `period`, as a
  /// (target index, TTL) of the current run; nullopt when no such
  /// probe was sent in this run.
  [[nodiscard]] std::optional<std::pair<std::size_t, int>> probe_in_run(
      std::uint64_t residue, std::uint64_t period) const;

  netsim::Simulator* sim_;
  netsim::HostId host_;
  DnsrouteConfig cfg_;
  util::Duration gap_;
  /// The A query for cfg_.qname, encoded once; bytes 0..1 are the TXID.
  std::vector<std::uint8_t> query_;
  std::vector<TracePath> paths_;
  std::uint64_t run_first_ = 0;  // probe number of this run's first probe
  std::uint64_t run_end_ = 0;    // one past this run's last probe number
  std::uint64_t sent_ = 0;       // probes sent so far = next probe number
  util::SimTime last_send_at_;
};

// --- Path analyses -----------------------------------------------------

struct PathLengthSample {
  topo::ResolverProject project;
  netsim::Asn forwarder_asn = 0;
  int hops = 0;
};

/// Fig. 6 input: per-project forwarder→resolver hop counts for all
/// complete paths whose resolver belongs to a big project.
[[nodiscard]] std::vector<PathLengthSample> path_length_samples(
    const std::vector<TracePath>& paths,
    const registry::RegistrySnapshot& registry);

struct AsRelationshipReport {
  std::uint64_t paths_considered = 0;
  std::uint64_t paths_with_as_mapping = 0;
  std::uint64_t as_in_equals_as_out = 0;   // §5: 62% of usable paths
  std::uint64_t inferred_provider_customer = 0;
  std::uint64_t unknown_to_caida = 0;      // §5: 41 new relationships
};

/// Infers provider→customer edges: when the AS before and after the
/// forwarder coincide, that AS must be the forwarder AS's provider
/// (the scanner is outside its customer cone).
[[nodiscard]] AsRelationshipReport infer_relationships(
    const std::vector<TracePath>& paths,
    const registry::RegistrySnapshot& registry);

}  // namespace odns::dnsroute

// Netsim hot-path benchmark: measures raw packet throughput along the
// engine's production paths.
//
// Route-cache workloads (absolute throughput of the cached route path):
//
//  * repeated-destination scan — one vantage host re-probing a fixed
//    set of unicast targets, the shape of every §3/§4 scan campaign;
//  * mixed anycast — half the targets are anycast groups, exercising
//    the nearest-PoP resolution path (public resolvers à la 8.8.8.8).
//
// Both gate on the exact route-cache counts: misses equal the distinct
// (source AS, destination) pairs, hits equal packets minus misses.
//
// Scheduler-stress workloads (absolute throughput of the typed event
// pool, docs/event-engine.md):
//
//  * sched burst — whole campaigns injected back-to-back at one
//    timestamp, so delivery legs land in huge same-time batches;
//  * sched timer mix — half the probes fire from long-horizon timers
//    spread over seconds of simulated time, keeping the heap deep
//    while bursts pile onto the near edge.
//
// Both gate on exact events-executed and event-pool high-water counts
// and on a ceiling for heap allocations inside the timed section.
//
// Besides timing, every non-sharded workload re-runs each of its sides
// in a traced verification pass on the pinned default configuration,
// and the counters, trace, and router-hop hashes must reproduce the
// row's golden digest — recorded while the old baselines (uncached
// routes, legacy closure events, the map address plane, scalar
// delivery) still ran beside the fast paths and agreed with them. A fast path must
// never change a decision, only the cost of making it. Results are
// recorded at the repo root as BENCH_netsim.json (see
// docs/benchmarks.md).
//
// Sharded workloads (1-shard typed engine vs. N-shard ShardPool run,
// docs/architecture.md "Sharded execution"):
//
//  * sharded census scan — paced probes to per-AS DNS responders that
//    decode the query and encode a two-record answer (the census
//    traffic shape): serving work spreads across shards;
//  * sharded cross-shard relay — every target is a transparent
//    forwarder relaying to a responder on a *different* shard, so each
//    probe crosses the mailbox fabric twice;
//  * amplification reflection — a reflective-amplification campaign
//    over the relay world (one attacker spoofing four victims through
//    every transparent forwarder, scan::AmplificationCampaign): the
//    determinism check additionally covers the merged reflection log,
//    the attack-scenario layer's output.
//
// The sharded speedup is reported from the parallel **critical path**
// (max per-shard CPU seconds, ShardStats::busy_seconds) — the honest
// multi-core number on any machine, including single-core CI
// containers where wall-clock cannot parallelize; the wall-clock
// throughput of the sharded run is recorded alongside. Determinism is
// checked with the canonical (shard-count-invariant) trace digest.
//
// Route computation (docs/architecture.md "Routing fast path"):
//
//  * route_span_miss — every (source AS, destination AS) pair of a
//    census-shaped world routed through a cold RouteCache (cleared
//    after each source), reported as spans computed per second. Gated
//    (exit 2) on the pinned all-pairs digest of AS paths and router
//    hops.
//
// DNSRoute++ (docs/architecture.md "Probe pacing"):
//
//  * dnsroute_trace — DNSRoute++ over every transparent forwarder of a
//    census-shaped world (the paper-census configuration at a small
//    scale), reported as probes sent per second. Gated (exit 2) on the
//    pinned digest of every traced path and on a ceiling for the
//    event-pool high-water mark of census plus trace, which lazy
//    pacing keeps at in-flight work instead of one slot per probe.
//
// Million-host census (docs/architecture.md "Internet-scale worlds &
// streaming correlation"):
//
//  * million_host_census — the full core::run_census pipeline over the
//    bulk-population topology at --census-scale (default: ≥10⁶ hosts,
//    ≥10⁴ ASes) with streaming correlation, once on 1 shard and once
//    on 8; reports hosts-simulated-per-second, the peak RSS of the
//    run (VmHWM), and the streaming window high-water mark, and
//    requires the classify::census_fingerprint of both executions to
//    be identical.
//
//  * fault_plane_census — the same streaming census on a tenth of the
//    world under an adverse network (5% loss + jitter, reordering,
//    duplication, payload corruption) with scanner retransmission
//    (2 retries), 1 shard vs. 8: the faulted census fingerprint and
//    the full fault counters must be shard-count-invariant. Also
//    records an ungated coverage sweep (loss 1%/5% × retries off/on)
//    documenting graceful degradation and recovery.
//
// usage: bench_netsim [--packets=N] [--ases=N] [--hops=N] [--dests=N]
//                     [--seed=N] [--shards=N] [--json=FILE]
//                     [--min-speedup=F] [--census-scale=F]
//
// Exits 1 on a determinism violation, 2 when any workload's speedup
// falls below --min-speedup, an exact count gate (route-cache,
// scheduler) misses its pinned value, the route_span_miss or
// dnsroute_trace digest differs from its pinned value or the
// dnsroute_trace pool ceiling is exceeded (CI's loud perf-regression gates), 3 when the full-scale census world misses its ≥10⁶-host /
// ≥10⁴-AS floors,
// 4 when a recorded peak RSS exceeds --max-rss-regression kB (CI's
// loud memory-regression gate).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "classify/analysis.hpp"
#include "core/census.hpp"
#include "dnsroute/dnsroute.hpp"
#include "dnswire/arena.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "honeypot/lab.hpp"
#include "netsim/sim.hpp"
#include "nodes/forwarder.hpp"
#include "scan/amplification.hpp"
#include "scan/txscanner.hpp"
#include "scan/vantage.hpp"
#include "util/hash.hpp"
#include "util/ipv4.hpp"

// Heap-allocation counter behind the scheduler rows' allocation gate:
// every global operator new on the calling thread bumps it. It is
// thread-local, so the sharded rows' worker threads never contend on
// one counter.
namespace {
thread_local std::uint64_t t_heap_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace odns;
using netsim::Asn;
using netsim::HostId;
using netsim::Simulator;
using util::Ipv4;
using util::Prefix;

struct Opts {
  std::uint64_t packets = 200000;
  std::uint32_t ases = 64;
  int hops = 3;
  std::uint32_t dests = 32;
  std::uint64_t seed = 2021;
  std::uint32_t shards = 4;
  std::string json_path;
  double min_speedup = 0.0;
  /// Loud memory-regression gate: when > 0, any workload that records
  /// a peak RSS above this many kB fails the run (exit 4). CI smoke
  /// passes the ceiling matching its --census-scale so the recorded
  /// peak_rss_kb cannot silently creep back up.
  std::uint64_t max_rss_regression_kb = 0;
  /// Topology scale of the million_host_census row. The default builds
  /// the full ≥10⁶-host / ≥10⁴-AS world (the recorded BENCH row); CI
  /// smoke caps it (e.g. 0.047 ≈ 10⁵ hosts) to stay inside the job
  /// budget — the world-size floors are only enforced at full scale.
  double census_scale = 0.5;

  /// The world every golden digest below was recorded on: the default
  /// options. Verification passes always run it, whatever the timed
  /// passes were asked to do.
  static Opts pinned() { return Opts{}; }

  static Opts parse(int argc, char** argv) {
    Opts o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto val = [&](const char* prefix) -> const char* {
        return arg.c_str() + std::strlen(prefix);
      };
      if (arg.rfind("--packets=", 0) == 0) {
        o.packets = std::strtoull(val("--packets="), nullptr, 10);
      } else if (arg.rfind("--ases=", 0) == 0) {
        o.ases = static_cast<std::uint32_t>(
            std::strtoul(val("--ases="), nullptr, 10));
      } else if (arg.rfind("--hops=", 0) == 0) {
        o.hops = std::atoi(val("--hops="));
      } else if (arg.rfind("--dests=", 0) == 0) {
        o.dests = static_cast<std::uint32_t>(
            std::strtoul(val("--dests="), nullptr, 10));
      } else if (arg.rfind("--seed=", 0) == 0) {
        o.seed = std::strtoull(val("--seed="), nullptr, 10);
      } else if (arg.rfind("--shards=", 0) == 0) {
        o.shards = static_cast<std::uint32_t>(
            std::strtoul(val("--shards="), nullptr, 10));
      } else if (arg.rfind("--json=", 0) == 0) {
        o.json_path = val("--json=");
      } else if (arg.rfind("--min-speedup=", 0) == 0) {
        o.min_speedup = std::atof(val("--min-speedup="));
      } else if (arg.rfind("--max-rss-regression=", 0) == 0) {
        o.max_rss_regression_kb =
            std::strtoull(val("--max-rss-regression="), nullptr, 10);
      } else if (arg.rfind("--census-scale=", 0) == 0) {
        o.census_scale = std::atof(val("--census-scale="));
      } else {
        std::cout << "usage: bench_netsim [--packets=N] [--ases=N] "
                     "[--hops=N] [--dests=N] [--seed=N] [--shards=N] "
                     "[--json=FILE] [--min-speedup=F] "
                     "[--max-rss-regression=KB] [--census-scale=F]\n";
        std::exit(arg == "--help" ? 0 : 64);
      }
    }
    if (o.ases < 4 || o.dests == 0 || o.hops < 1 || o.shards < 2) {
      std::cerr << "bench_netsim: need --ases>=4, --dests>=1, --hops>=1, "
                   "--shards>=2\n";
      std::exit(64);
    }
    return o;
  }
};

class NullSink : public netsim::App {
 public:
  void on_datagram(const netsim::Datagram&) override {}
};

using util::fnv1a64;
constexpr std::uint64_t kFnvBasis = util::kFnv1aBasis;

/// The world under test plus the target list for one workload.
struct World {
  std::unique_ptr<Simulator> sim;
  HostId scanner = netsim::kInvalidHost;
  std::vector<Ipv4> targets;
  NullSink sink;
};

/// Ring-of-ASes topology with a few chords; destinations spread evenly
/// around the ring, optionally alternating with 3-member anycast
/// groups. Identical for every (seed, opts) pair by construction.
World build_world(const Opts& opts, bool anycast) {
  World w;
  netsim::SimConfig cfg;
  cfg.seed = opts.seed;
  w.sim = std::make_unique<Simulator>(cfg);
  auto& net = w.sim->net();
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    netsim::AsConfig as;
    as.asn = i;
    as.internal_hops = opts.hops;
    net.add_as(as);
    net.announce(i, Prefix{Ipv4{10, static_cast<std::uint8_t>(i % 250), 0, 0},
                           16});
  }
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    net.link(i, i % opts.ases + 1);  // ring
    if (i % 7 == 0 && i + opts.ases / 3 <= opts.ases) {
      net.link(i, i + opts.ases / 3);  // chord
    }
  }
  auto host_addr = [&](std::uint32_t asn, std::uint8_t lo) {
    return Ipv4{10, static_cast<std::uint8_t>(asn % 250),
                static_cast<std::uint8_t>(asn / 250), lo};
  };
  w.scanner = net.add_host(1, {host_addr(1, 1)});
  for (std::uint32_t j = 0; j < opts.dests; ++j) {
    // Spread destinations over ASes 2..ases (skipping the vantage AS).
    const std::uint32_t asn = 2 + (j * (opts.ases - 1)) / opts.dests;
    if (anycast && j % 2 == 1) {
      const Ipv4 group{9, 9, static_cast<std::uint8_t>(j % 250), 1};
      for (std::uint32_t m = 0; m < 3; ++m) {
        const std::uint32_t masn = 2 + (asn - 2 + m * opts.ases / 3) %
                                           (opts.ases - 1);
        const auto member = net.add_host(
            masn, {host_addr(masn, static_cast<std::uint8_t>(100 + j % 100))});
        net.join_anycast(group, member);
        w.sim->bind_udp(member, 53, &w.sink);
      }
      w.targets.push_back(group);
    } else {
      const auto host = net.add_host(
          asn, {host_addr(asn, static_cast<std::uint8_t>(2 + j % 200))});
      w.sim->bind_udp(host, 53, &w.sink);
      w.targets.push_back(host_addr(asn, static_cast<std::uint8_t>(2 + j % 200)));
    }
  }
  return w;
}

struct RunResult {
  netsim::SimCounters counters;
  netsim::RouteCacheStats cache_stats;
  std::uint64_t trace_hash = kFnvBasis;
  std::uint64_t route_hash = kFnvBasis;
  double seconds = 0.0;
  // Scheduler rows only: events executed, event-pool high-water mark,
  // and heap allocations inside the timed section.
  std::uint64_t events = 0;
  std::uint64_t pool_slots = 0;
  std::uint64_t allocations = 0;
};

/// Packets per traced verification pass (the pinned configuration).
constexpr std::uint64_t kVerifyPackets = 50000;

/// One digest over everything a verification pass observed: every
/// SimCounters field, the trace hash, and the router-hop hash.
std::uint64_t run_digest(const RunResult& r) {
  const netsim::SimCounters& c = r.counters;
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t v :
       {c.sent, c.delivered, c.dropped_sav, c.dropped_loss,
        c.dropped_no_route, c.ttl_expired, c.icmp_generated, c.redirected,
        c.dropped_outage, c.jittered, c.reordered, c.duplicated, c.corrupted,
        c.icmp_unreachable_suppressed, r.trace_hash, r.route_hash}) {
    h = fnv1a64(h, v);
  }
  return h;
}

void attach_trace_tap(Simulator& sim, RunResult& r) {
  sim.add_tap([&r](netsim::TapEvent ev, const netsim::Packet& p) {
    r.trace_hash = fnv1a64(r.trace_hash, static_cast<std::uint64_t>(ev));
    r.trace_hash = fnv1a64(r.trace_hash, p.src.value());
    r.trace_hash = fnv1a64(r.trace_hash, p.dst.value());
    r.trace_hash = fnv1a64(r.trace_hash,
                         static_cast<std::uint64_t>(p.ttl) << 32 |
                             std::uint64_t{p.src_port} << 16 | p.dst_port);
  });
}

void hash_routes(Simulator& sim, const std::vector<Ipv4>& targets,
                 RunResult& r) {
  // Router-hop sequences for every (vantage, target) pair, hashed:
  // both sides of an A/B must agree hop for hop.
  for (const auto dst : targets) {
    const auto route = sim.net().route_from_as(1, dst);
    if (!route) continue;
    r.route_hash = fnv1a64(r.route_hash, route->dst_host);
    for (const auto hop : route->router_hops) {
      r.route_hash = fnv1a64(r.route_hash, hop.value());
    }
  }
}

/// Sends `packets` probes round-robin over the targets and drains the
/// event queue. The timed section covers injection + routing + delivery
/// — the full per-packet fast path.
RunResult run_workload(const Opts& opts, bool anycast, bool traced,
                       std::uint64_t packets) {
  World w = build_world(opts, anycast);
  auto& sim = *w.sim;
  RunResult r;
  if (traced) attach_trace_tap(sim, r);
  // Paced injection: drain the queue every burst so the event heap
  // stays scan-sized instead of ballooning to the whole campaign.
  constexpr std::uint64_t kBurst = 4096;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t p = 0; p < packets; ++p) {
    netsim::SendOptions send;
    send.dst = w.targets[p % w.targets.size()];
    send.src_port = static_cast<std::uint16_t>(40000 + (p & 0xFFF));
    send.dst_port = 53;
    send.ttl = 255;
    sim.send_udp(w.scanner, std::move(send));
    if ((p + 1) % kBurst == 0) sim.run();
  }
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.counters = sim.counters();
  r.cache_stats = sim.net().route_cache_stats();
  hash_routes(sim, w.targets, r);
  return r;
}

/// Address-plane lookup surface (the per-delivery addr→host step): a
/// dense 2^17-host population spread over the ring, resolved in a
/// strided (cache-hostile, packet-stream-like) order. The fast side is
/// Network's flat interned plane; the baseline resolves the same way
/// (anycast check first) but answers unicast from a bench-local
/// std::unordered_map built from the same interned address pool.
/// Owners must be identical element for element (hashed into the
/// determinism check).
RunResult run_addr_plane_workload(const Opts& opts, bool flat, bool /*traced*/,
                                  std::uint64_t lookups) {
  constexpr std::uint32_t kLookupHosts = 1u << 17;
  World w = build_world(opts, /*anycast=*/false);
  auto& net = w.sim->net();
  std::vector<Ipv4> addrs;
  addrs.reserve(kLookupHosts);
  for (std::uint32_t i = 0; i < kLookupHosts; ++i) {
    // 172.16/12 private space: disjoint from build_world's 10/8 hosts
    // and the 100.64/10 router pool.
    const Ipv4 addr{(172u << 24) | (16u << 20) | i};
    (void)net.add_host(2 + i % (opts.ases - 1), {addr});
    addrs.push_back(addr);
  }
  net.freeze_addr_plane();
  std::unordered_map<Ipv4, HostId> map;
  if (!flat) {
    map.reserve(net.host_count());
    for (HostId id = 0; id < net.host_count(); ++id) {
      for (const auto addr : net.host_addrs(id)) map.emplace(addr, id);
    }
  }

  RunResult r;
  std::uint64_t h = kFnvBasis;
  std::size_t idx = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t p = 0; p < lookups; ++p) {
    idx += 48271;  // co-prime stride: successive probes never adjacent
    if (idx >= kLookupHosts) idx -= kLookupHosts;
    const Asn from = static_cast<Asn>(2 + p % (opts.ases - 1));
    HostId owner = netsim::kInvalidHost;
    if (flat || net.is_anycast(addrs[idx])) {
      owner = net.resolve_destination(addrs[idx], from);
    } else if (const auto it = map.find(addrs[idx]); it != map.end()) {
      owner = it->second;
    }
    h = fnv1a64(h, owner);
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.trace_hash = h;
  r.route_hash = h;
  return r;
}

/// Fires one probe per timer event — the long-horizon half of the
/// scheduler-stress mix.
class ProbeTimer : public netsim::TimerTarget {
 public:
  ProbeTimer(Simulator& sim, const World& w) : sim_(&sim), w_(&w) {}
  void on_timer(std::uint64_t target_idx, std::uint64_t src_port) override {
    netsim::SendOptions send;
    send.dst = w_->targets[target_idx];
    send.src_port = static_cast<std::uint16_t>(src_port);
    send.dst_port = 53;
    send.ttl = 255;
    sim_->send_udp(w_->scanner, std::move(send));
  }

 private:
  Simulator* sim_;
  const World* w_;
};

/// Scheduler-stress workloads. Both shapes keep the event heap loaded
/// with the whole campaign so per-event scheduling cost dominates.
///
/// Burst (timer_mix=false): every probe is injected back-to-back at
/// one instant and a single drain executes the campaign — delivery
/// legs land in huge same-timestamp batches.
///
/// Timer mix (timer_mix=true): probes are paced in 1 ms slots, and
/// every probe arms a timeout timer at slot + 3 s that fires a retry
/// probe — the exact shape the transactional scanner and resolver put
/// on the scheduler (long-horizon timers inheriting the pacing's
/// clustering). Deliveries stay pending across slots, so the heap
/// holds bursts, deliveries, and a 3-second timer horizon at once.
RunResult run_sched_workload(const Opts& opts, bool timer_mix, bool traced,
                             std::uint64_t packets) {
  World w = build_world(opts, /*anycast=*/false);
  auto& sim = *w.sim;
  RunResult r;
  if (traced) attach_trace_tap(sim, r);
  ProbeTimer timer(sim, w);
  const std::uint64_t allocs0 = t_heap_allocations;
  const auto t0 = std::chrono::steady_clock::now();
  auto send_probe = [&](std::uint64_t p) {
    netsim::SendOptions send;
    send.dst = w.targets[p % w.targets.size()];
    send.src_port = static_cast<std::uint16_t>(40000 + (p & 0xFFF));
    send.dst_port = 53;
    send.ttl = 255;
    sim.send_udp(w.scanner, std::move(send));
  };
  if (timer_mix) {
    constexpr std::uint64_t kSlotBurst = 4096;
    const std::uint64_t direct = packets / 2;  // the rest are retries
    for (std::uint64_t sent = 0; sent < direct;) {
      const std::uint64_t n = std::min(kSlotBurst, direct - sent);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t p = sent + i;
        send_probe(p);
        sim.schedule_timer(util::Duration::seconds(3), &timer,
                           p % w.targets.size(), 40000 + (p & 0xFFF));
      }
      sent += n;
      // Advance one pacing slot without draining the in-flight
      // deliveries (they are 1.5–50 ms out) or the timer horizon.
      sim.run_until(sim.now() + util::Duration::millis(1));
    }
  } else {
    for (std::uint64_t p = 0; p < packets; ++p) send_probe(p);
  }
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  r.allocations = t_heap_allocations - allocs0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.counters = sim.counters();
  r.events = sim.events_executed();
  r.pool_slots = sim.event_pool_slots();
  hash_routes(sim, w.targets, r);
  return r;
}

// --- sharded census-style workloads ---------------------------------

/// Authoritative-style responder: decodes the query, answers with two
/// A records (dynamic mirror + control), encodes, sends — the per-
/// target serving cost of a census scan, which is the work sharding
/// spreads across cores.
class DnsResponder : public netsim::App {
 public:
  DnsResponder(Simulator& sim, HostId host) : sim_(&sim), host_(host) {}

  void on_datagram(const netsim::Datagram& dgram) override {
    auto parsed = dnswire::decode(*dgram.payload);
    if (!parsed) return;
    const dnswire::Message& msg = parsed.value();
    if (msg.header.qr || msg.questions.empty()) return;
    dnswire::Message resp = dnswire::make_response(msg);
    resp.header.ra = true;
    const auto& qname = msg.questions.front().name;
    resp.answers.push_back(dnswire::ResourceRecord{
        qname, dnswire::RrType::a, dnswire::RrClass::in, 60,
        dnswire::ARecord{dgram.src}});
    resp.answers.push_back(dnswire::ResourceRecord{
        qname, dnswire::RrType::a, dnswire::RrClass::in, 60,
        dnswire::ARecord{Ipv4{203, 0, 113, 9}}});
    netsim::SendOptions out;
    out.dst = dgram.src;
    out.src_port = dgram.dst_port;
    out.dst_port = dgram.src_port;
    out.payload = dnswire::encode(resp);
    sim_->send_udp(host_, std::move(out));
  }

 private:
  Simulator* sim_;
  HostId host_;
};

/// Arena-codec counterpart of DnsResponder with a batch entry point:
/// one cohort of queries is served through decode_into → view-built
/// mirror answer → encode_into, arenas reset per message — the
/// zero-allocation serving loop (docs/architecture.md,
/// "Zero-allocation wire path"). Responses are byte-identical to
/// DnsResponder's, so the scalar-vs-batched A/B can require identical
/// traces and counters.
class ArenaDnsResponder : public netsim::App {
 public:
  ArenaDnsResponder(Simulator& sim, HostId host) : sim_(&sim), host_(host) {}

  void on_datagram(const netsim::Datagram& dgram) override { serve(dgram); }

  void on_batch(std::span<const netsim::Datagram> batch) override {
    for (const auto& dgram : batch) serve(dgram);
  }

 private:
  void serve(const netsim::Datagram& dgram) {
    rx_.reset();
    tx_.reset();
    auto parsed = dnswire::decode_into(
        rx_, std::span<const std::uint8_t>(*dgram.payload));
    if (!parsed.ok()) return;
    const dnswire::MessageView& msg = parsed.value();
    if (msg.header.qr || msg.questions.empty()) return;
    auto answers = tx_.alloc_array<dnswire::RecordView>(2);
    answers[0].name = msg.questions.front().name;
    answers[0].type = dnswire::RrType::a;
    answers[0].ttl = 60;
    answers[0].rdata.tag = dnswire::RdataView::Tag::a;
    answers[0].rdata.a_addr = dgram.src;
    answers[1] = answers[0];
    answers[1].rdata.a_addr = Ipv4{203, 0, 113, 9};
    dnswire::MessageView resp;
    resp.header.id = msg.header.id;
    resp.header.qr = true;
    resp.header.rd = msg.header.rd;
    resp.header.ra = true;
    resp.questions = msg.questions;
    resp.answers = answers;
    const auto wire = dnswire::encode_into(tx_, resp);
    netsim::SendOptions out;
    out.dst = dgram.src;
    out.src_port = dgram.dst_port;
    out.dst_port = dgram.src_port;
    out.payload.assign(wire.begin(), wire.end());
    sim_->send_udp(host_, std::move(out));
  }

  Simulator* sim_;
  HostId host_;
  dnswire::WireArena rx_;
  dnswire::WireArena tx_;
};

/// Sends one pacing slot's worth of pre-encoded probes per timer fire
/// (scanners pace in slots, not per-packet timers — and the slot timer
/// keeps the scanner shard's event count proportional to slots, not
/// probes).
class ProbePacer : public netsim::TimerTarget {
 public:
  ProbePacer(Simulator& sim, HostId scanner, const std::vector<Ipv4>& targets,
             std::vector<std::uint8_t> query)
      : sim_(&sim), scanner_(scanner), targets_(&targets),
        query_(std::move(query)) {}

  void on_timer(std::uint64_t first, std::uint64_t count) override {
    for (std::uint64_t p = first; p < first + count; ++p) {
      netsim::SendOptions send;
      send.dst = (*targets_)[p % targets_->size()];
      send.src_port = static_cast<std::uint16_t>(40000 + (p & 0xFFF));
      send.dst_port = 53;
      send.ttl = 255;
      send.payload = query_;  // clone of the template
      sim_->send_udp(scanner_, std::move(send));
    }
  }

 private:
  Simulator* sim_;
  HostId scanner_;
  const std::vector<Ipv4>* targets_;
  std::vector<std::uint8_t> query_;
};

/// World for the sharded workloads: every non-vantage AS hosts an
/// upstream resolver (DnsResponder) and a recursive forwarder relaying
/// to it — the ODNS's dominant species, so each probe costs two DNS
/// transactions of serving work on its target's shard (SAV off
/// everywhere so relays work). With `relay`, targets are additionally
/// transparent-forwarder hosts whose port-53 redirect points at the
/// *next* AS's recursive forwarder — which the round-robin AS
/// partition places on a different shard for every shard count > 1,
/// so each probe crosses the mailbox fabric on the relay leg too.
struct ShardedWorld {
  std::unique_ptr<Simulator> sim;
  HostId scanner = netsim::kInvalidHost;
  std::vector<Ipv4> targets;
  std::vector<std::unique_ptr<DnsResponder>> responders;
  std::vector<std::unique_ptr<nodes::RecursiveForwarder>> forwarders;
  NullSink sink;  // scanner side: capture is counting, not decoding
};

ShardedWorld build_sharded_world(const Opts& opts, bool relay,
                                 std::uint32_t shards, bool threads) {
  ShardedWorld w;
  netsim::SimConfig cfg;
  cfg.seed = opts.seed;
  cfg.shards = shards;
  cfg.shard_threads = threads;
  w.sim = std::make_unique<Simulator>(cfg);
  auto& net = w.sim->net();
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    netsim::AsConfig as;
    as.asn = i;
    as.internal_hops = opts.hops;
    as.source_address_validation = false;  // transparent relays need it off
    net.add_as(as);
    net.announce(i, Prefix{Ipv4{10, static_cast<std::uint8_t>(i % 250), 0, 0},
                           16});
  }
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    net.link(i, i % opts.ases + 1);  // ring
    if (i % 7 == 0 && i + opts.ases / 3 <= opts.ases) {
      net.link(i, i + opts.ases / 3);  // chord
    }
  }
  auto host_addr = [&](std::uint32_t asn, std::uint8_t lo) {
    return Ipv4{10, static_cast<std::uint8_t>(asn % 250),
                static_cast<std::uint8_t>(asn / 250), lo};
  };
  w.scanner = net.add_host(1, {host_addr(1, 1)});
  w.sim->bind_udp_wildcard(w.scanner, &w.sink);
  std::vector<Ipv4> forwarder_addrs(opts.ases + 1);
  for (std::uint32_t asn = 2; asn <= opts.ases; ++asn) {
    // Upstream resolver of this AS...
    const Ipv4 upstream_addr = host_addr(asn, 53);
    const auto upstream = net.add_host(asn, {upstream_addr});
    w.responders.push_back(std::make_unique<DnsResponder>(*w.sim, upstream));
    w.sim->bind_udp(upstream, 53, w.responders.back().get());
    // ...and the recursive forwarder relaying to it. Caching off: every
    // probe must cost a full relay round trip, like an uncached census
    // first contact.
    const Ipv4 fwd_addr = host_addr(asn, 80);
    const auto fwd = net.add_host(asn, {fwd_addr});
    nodes::ForwarderConfig fc;
    fc.upstream = upstream_addr;
    fc.cache_responses = false;
    w.forwarders.push_back(
        std::make_unique<nodes::RecursiveForwarder>(*w.sim, fwd, fc));
    w.forwarders.back()->start();
    forwarder_addrs[asn] = fwd_addr;
  }
  for (std::uint32_t asn = 2; asn <= opts.ases; ++asn) {
    if (relay) {
      // Transparent forwarder in this AS relaying to the next AS's
      // recursive forwarder: probe and relay cross the shard fabric.
      const std::uint32_t next = asn == opts.ases ? 2 : asn + 1;
      const Ipv4 tf_addr = host_addr(asn, 77);
      const auto tf = net.add_host(asn, {tf_addr});
      w.sim->add_port_redirect(tf, 53, forwarder_addrs[next]);
      w.targets.push_back(tf_addr);
    } else {
      w.targets.push_back(forwarder_addrs[asn]);
    }
  }
  return w;
}

/// One sharded-workload pass. Timing covers pacing + serving + drain;
/// `critical_seconds` is max per-shard CPU busy time (= the 1-shard
/// wall time when shards == 1, since everything runs on one shard).
struct ShardedRun {
  RunResult base;
  double critical_seconds = 0.0;
  std::uint64_t mailbox_in = 0;
  std::uint64_t mailbox_overflows = 0;
};

ShardedRun run_sharded_workload(const Opts& opts, bool relay,
                                std::uint32_t shards, bool traced,
                                std::uint64_t packets, bool threads = true) {
  ShardedWorld w = build_sharded_world(opts, relay, shards, threads);
  auto& sim = *w.sim;
  if (traced) sim.set_packet_trace_enabled(true);
  const auto query = dnswire::encode(dnswire::make_query(
      0x777, *dnswire::Name::parse("scan.odns-study.net"),
      dnswire::RrType::a));
  ProbePacer pacer(sim, w.scanner, w.targets, query);
  // 16-probe slots at 16 µs (1 µs/probe average): hundreds of probes
  // per lookahead window, so windows stay fat and barrier overhead
  // amortizes (census pacing shape).
  constexpr std::uint64_t kSlot = 16;
  for (std::uint64_t p = 0; p < packets; p += kSlot) {
    sim.schedule_timer_on(w.scanner, util::Duration::micros(
                                         static_cast<std::int64_t>(p)),
                          &pacer, p, std::min(kSlot, packets - p));
  }
  ShardedRun r;
  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();
  r.base.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.base.counters = sim.counters();
  if (traced) r.base.trace_hash = sim.canonical_trace_digest();
  hash_routes(sim, w.targets, r.base);
  if (shards > 1) {
    for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
      const auto& stats = sim.shard_stats(s);
      r.critical_seconds = std::max(r.critical_seconds, stats.busy_seconds);
      r.mailbox_in += stats.mailbox_in;
      r.mailbox_overflows += stats.mailbox_overflows;
    }
  } else {
    r.critical_seconds = r.base.seconds;
  }
  return r;
}

bool counters_equal(const netsim::SimCounters& a,
                    const netsim::SimCounters& b) {
  return a.sent == b.sent && a.delivered == b.delivered &&
         a.dropped_sav == b.dropped_sav && a.dropped_loss == b.dropped_loss &&
         a.dropped_no_route == b.dropped_no_route &&
         a.ttl_expired == b.ttl_expired &&
         a.icmp_generated == b.icmp_generated && a.redirected == b.redirected;
}

/// One bench row. The labels name the modes being measured so the JSON
/// keys stay self-describing ("heap"/"arena" for the codec row, ...);
/// rows without a baseline leave baseline_label empty and record only
/// the production path's absolute throughput.
struct WorkloadReport {
  std::string name;
  std::string baseline_label;
  std::string fast_label;
  double baseline_pps = 0.0;
  double fast_pps = 0.0;
  double speedup = 0.0;
  bool identical = false;
  /// Digest of the verification pass (run_digest), for the rows that
  /// pin one, and the pass itself.
  std::uint64_t digest = 0;
  RunResult verify;
  bool has_cache_stats = false;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  /// Exact-count regression gate (route-cache and scheduler rows): the
  /// counts must hit their pinned values on every machine.
  bool has_count_gate = false;
  bool count_gate_ok = true;
  std::uint64_t expected_cache_misses = 0;
  std::uint64_t allocation_ceiling = 0;
  // Sharded rows only: wall-clock throughput of the sharded run (the
  // critical-path number is fast_pps) and mailbox-fabric statistics.
  bool has_shard_stats = false;
  std::uint32_t shards = 0;
  double sharded_wall_pps = 0.0;
  std::uint64_t mailbox_in = 0;
  std::uint64_t mailbox_overflows = 0;
  // multi_vantage_census row only: vantage count, the scanner shard's
  // busy time as a share of the busiest shard's in both modes, and
  // whether the scanner shard is still the critical path with the
  // vantage set active (the acceptance point: it must not be).
  bool has_vantage_stats = false;
  std::uint32_t vantages = 0;
  double scanner_busy_share_single = 0.0;
  double scanner_busy_share_multi = 0.0;
  bool scanner_is_max_busy_multi = false;
  // million_host_census row only: the world size, the memory
  // high-water marks (process VmHWM and the streaming correlator's
  // pending window), and the census-table hash both executions must
  // share. The pps fields of this row count *hosts simulated* per
  // second, not packets.
  bool has_census_stats = false;
  std::uint64_t census_hosts = 0;
  std::uint64_t census_ases = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t peak_pending_probes = 0;
  std::uint64_t census_hash = 0;
  // fault_plane_census row only: graceful-degradation accounting of
  // the faulted A/B run, plus an ungated coverage sweep (loss rate ×
  // retransmission) recorded for context, not gated on.
  bool has_fault_stats = false;
  double coverage = 0.0;
  std::uint64_t probes_retried = 0;
  std::uint64_t responses_duplicate = 0;
  std::uint64_t responses_corrupt = 0;
  std::uint64_t ases_degraded = 0;
  double coverage_loss1_r0 = 0.0;
  double coverage_loss1_r2 = 0.0;
  double coverage_loss5_r0 = 0.0;
  double coverage_loss5_r2 = 0.0;
  // route_span_miss row only: the world's AS count and the number of
  // (source AS, destination AS) pairs routed per pass. The pps fields
  // of this row count *spans computed* per second, not packets.
  bool has_span_stats = false;
  std::uint64_t span_ases = 0;
  std::uint64_t span_pairs = 0;
  // dnsroute_trace row only: targets traced, probes sent per pass, and
  // the event-pool high-water mark against its ceiling. The pps fields
  // of this row count *probes sent* per second.
  bool has_trace_stats = false;
  std::uint64_t trace_targets = 0;
  std::uint64_t trace_probes = 0;
  std::uint64_t trace_pool_slots = 0;
  std::uint64_t trace_pool_ceiling = 0;
};

// Golden run_digest values of each row's verification pass on the
// pinned configuration (Opts::pinned(), kVerifyPackets packets). They
// were pinned while both sides of every A/B still existed and agreed:
// uncached vs. cached routes, the map vs. the flat address plane,
// legacy closures vs. typed events, heap vs. arena codec, and scalar
// heap-codec vs. batched arena delivery.
constexpr std::uint64_t kRepeatedDestinationDigest = 0xe587936ab23ee24ull;
constexpr std::uint64_t kMixedAnycastDigest = 0xbd8d0eb7c4f31800ull;
constexpr std::uint64_t kAddrPlaneDigest = 0xe42dcdcbd38fbd99ull;
constexpr std::uint64_t kArenaCodecDigest = 0xb657f0cd411a634ull;
constexpr std::uint64_t kBatchCohortDigest = 0x1b289ebfce51fcbull;

/// Pinned counts of a scheduler row's verification pass: its golden
/// digest, exact events executed and event-pool high-water mark, and a
/// ceiling on heap allocations inside the timed section — the typed
/// engine's count measured before the legacy closure engine was
/// removed (each closure event cost at least one allocation there).
struct SchedGate {
  std::uint64_t digest;
  std::uint64_t events;
  std::uint64_t pool_slots;
  std::uint64_t allocation_ceiling;
};
constexpr SchedGate kSchedBurstGate = {0xf831af05cd1d491aull, 50000, 50000,
                                     432};
constexpr SchedGate kSchedTimerMixGate = {0x45b2a625ec2d84fbull, 75000,
                                        49360, 701};

/// Shared timing scaffolding: times the fast side — and, for an A/B row
/// (non-empty baseline_label), the baseline — best of 3 with no tap in
/// the hot loop, then re-runs each side traced on the pinned
/// configuration; every traced pass must reproduce the row's golden
/// digest, and an A/B row's timed pair must also agree. `run(o, fast,
/// traced, packets)` executes one pass.
template <typename RunFn>
WorkloadReport timed_workload(const Opts& opts, const std::string& name,
                              const std::string& baseline_label,
                              const std::string& fast_label,
                              std::uint64_t golden, RunFn run) {
  constexpr int kRepeats = 3;
  const bool ab = !baseline_label.empty();
  WorkloadReport rep;
  rep.name = name;
  rep.baseline_label = baseline_label;
  rep.fast_label = fast_label;
  RunResult baseline, fast;
  for (int rep_i = 0; rep_i < kRepeats; ++rep_i) {
    if (ab) {
      auto b = run(opts, /*fast=*/false, /*traced=*/false, opts.packets);
      if (rep_i == 0 || b.seconds < baseline.seconds) baseline = std::move(b);
    }
    auto f = run(opts, /*fast=*/true, /*traced=*/false, opts.packets);
    if (rep_i == 0 || f.seconds < fast.seconds) fast = std::move(f);
  }
  rep.fast_pps = static_cast<double>(opts.packets) / fast.seconds;
  const Opts pinned = Opts::pinned();
  rep.verify = run(pinned, true, true, kVerifyPackets);
  rep.digest = run_digest(rep.verify);
  rep.identical = rep.digest == golden;
  if (ab) {
    rep.baseline_pps = static_cast<double>(opts.packets) / baseline.seconds;
    rep.speedup = rep.fast_pps / rep.baseline_pps;
    rep.identical = rep.identical &&
                    run_digest(run(pinned, false, true, kVerifyPackets)) ==
                        golden &&
                    counters_equal(baseline.counters, fast.counters) &&
                    baseline.route_hash == fast.route_hash;
  }
  rep.cache_hits = fast.cache_stats.hits;
  rep.cache_misses = fast.cache_stats.misses;
  return rep;
}

WorkloadReport bench_workload(const Opts& opts, const std::string& name,
                              bool anycast) {
  WorkloadReport rep = timed_workload(
      opts, name, "", "cached",
      anycast ? kMixedAnycastDigest : kRepeatedDestinationDigest,
      [&](const Opts& o, bool, bool traced, std::uint64_t packets) {
        return run_workload(o, anycast, traced, packets);
      });
  rep.has_cache_stats = true;
  // Exact route-cache counts: each distinct (source AS, destination)
  // pair misses once — every probe leaves the vantage AS — and every
  // other packet is a hit.
  const World w = build_world(opts, anycast);
  rep.expected_cache_misses =
      std::set<Ipv4>(w.targets.begin(), w.targets.end()).size();
  rep.has_count_gate = true;
  rep.count_gate_ok =
      rep.cache_misses == rep.expected_cache_misses &&
      rep.cache_hits == opts.packets - rep.expected_cache_misses;
  return rep;
}

WorkloadReport bench_addr_plane_workload(const Opts& opts) {
  return timed_workload(
      opts, "addr_plane_lookup", "hash_map", "flat_table", kAddrPlaneDigest,
      [&](const Opts& o, bool fast, bool traced, std::uint64_t packets) {
        return run_addr_plane_workload(o, /*flat=*/fast, traced, packets);
      });
}

WorkloadReport bench_sched_workload(const Opts& opts, const std::string& name,
                                    bool timer_mix) {
  const SchedGate& gate = timer_mix ? kSchedTimerMixGate : kSchedBurstGate;
  WorkloadReport rep = timed_workload(
      opts, name, "", "typed", gate.digest,
      [&](const Opts& o, bool, bool traced, std::uint64_t packets) {
        return run_sched_workload(o, timer_mix, traced, packets);
      });
  rep.has_count_gate = true;
  rep.allocation_ceiling = gate.allocation_ceiling;
  rep.count_gate_ok = rep.verify.events == gate.events &&
                      rep.verify.pool_slots == gate.pool_slots &&
                      rep.verify.allocations <= gate.allocation_ceiling;
  return rep;
}

/// Sharded A/B: the 1-shard typed engine vs. the N-shard run on the
/// *same* workload. The sharded side's throughput is the parallel
/// critical path (packets / max per-shard busy seconds); wall-clock is
/// recorded alongside. Determinism compares summed counters, the
/// canonical trace digest, and router-hop hashes across shard counts.
WorkloadReport bench_sharded_workload(const Opts& opts,
                                      const std::string& name, bool relay) {
  constexpr int kRepeats = 3;
  WorkloadReport rep;
  rep.name = name;
  rep.baseline_label = "one_shard";
  rep.fast_label = "sharded_critical_path";
  rep.has_shard_stats = true;
  rep.shards = opts.shards;
  ShardedRun baseline, fast, fast_threaded;
  for (int rep_i = 0; rep_i < kRepeats; ++rep_i) {
    auto b = run_sharded_workload(opts, relay, 1, false, opts.packets);
    // Critical path from the sequential scheduler: per-shard CPU time
    // unpolluted by time-slicing (byte-identical to the threaded run).
    auto f = run_sharded_workload(opts, relay, opts.shards, false,
                                  opts.packets, /*threads=*/false);
    // Wall clock from the real worker-thread run.
    auto ft = run_sharded_workload(opts, relay, opts.shards, false,
                                   opts.packets, /*threads=*/true);
    if (rep_i == 0 || b.critical_seconds < baseline.critical_seconds) {
      baseline = std::move(b);
    }
    if (rep_i == 0 || f.critical_seconds < fast.critical_seconds) {
      fast = std::move(f);
    }
    if (rep_i == 0 || ft.base.seconds < fast_threaded.base.seconds) {
      fast_threaded = std::move(ft);
    }
  }
  rep.baseline_pps =
      static_cast<double>(opts.packets) / baseline.critical_seconds;
  rep.fast_pps = static_cast<double>(opts.packets) / fast.critical_seconds;
  rep.speedup = rep.fast_pps / rep.baseline_pps;
  rep.sharded_wall_pps =
      static_cast<double>(opts.packets) / fast_threaded.base.seconds;
  rep.mailbox_in = fast.mailbox_in;
  rep.mailbox_overflows = fast.mailbox_overflows;
  const std::uint64_t vpackets = std::min<std::uint64_t>(opts.packets, 30000);
  const auto vb = run_sharded_workload(opts, relay, 1, true, vpackets);
  const auto vf =
      run_sharded_workload(opts, relay, opts.shards, true, vpackets);
  rep.identical =
      counters_equal(vb.base.counters, vf.base.counters) &&
      vb.base.trace_hash == vf.base.trace_hash &&
      vb.base.route_hash == vf.base.route_hash &&
      counters_equal(baseline.base.counters, fast.base.counters) &&
      counters_equal(fast.base.counters, fast_threaded.base.counters) &&
      baseline.base.route_hash == fast.base.route_hash;
  return rep;
}

// --- multi-vantage census workload ----------------------------------

/// Shard count of the multi_vantage_census row. Fixed at 8: the
/// acceptance point is that the single-vantage scanner shard is the
/// structural critical path on a serving-light workload at 8 shards,
/// and the vantage set lifts it.
constexpr std::uint32_t kVantageShards = 8;

/// Serving-light world for the multi-vantage row: every non-vantage AS
/// hosts one DnsResponder answering directly (no forwarder relay), so
/// per-target serving work is minimal and the scan-side work — probe
/// encode + pacing + capture decode — dominates. In single-vantage
/// mode all of that lands on the scanner's shard.
struct VantageWorld {
  std::unique_ptr<Simulator> sim;
  HostId scanner = netsim::kInvalidHost;
  Ipv4 scanner_addr;
  std::vector<Ipv4> targets;  // one entry per probe (targets repeat)
  std::vector<std::unique_ptr<DnsResponder>> responders;
};

VantageWorld build_vantage_world(const Opts& opts, std::uint32_t shards,
                                 bool threads, std::uint64_t packets) {
  VantageWorld w;
  netsim::SimConfig cfg;
  cfg.seed = opts.seed;
  cfg.shards = shards;
  cfg.shard_threads = threads;
  w.sim = std::make_unique<Simulator>(cfg);
  auto& net = w.sim->net();
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    netsim::AsConfig as;
    as.asn = i;
    as.internal_hops = opts.hops;
    as.source_address_validation = false;  // vantages spoof the capture addr
    net.add_as(as);
    net.announce(i, Prefix{Ipv4{10, static_cast<std::uint8_t>(i % 250), 0, 0},
                           16});
  }
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    net.link(i, i % opts.ases + 1);  // ring
    if (i % 7 == 0 && i + opts.ases / 3 <= opts.ases) {
      net.link(i, i + opts.ases / 3);  // chord
    }
  }
  auto host_addr = [&](std::uint32_t asn, std::uint8_t lo) {
    return Ipv4{10, static_cast<std::uint8_t>(asn % 250),
                static_cast<std::uint8_t>(asn / 250), lo};
  };
  w.scanner_addr = host_addr(1, 1);
  w.scanner = net.add_host(1, {w.scanner_addr});
  std::vector<Ipv4> responder_addrs;
  for (std::uint32_t asn = 2; asn <= opts.ases; ++asn) {
    const Ipv4 addr = host_addr(asn, 53);
    const auto host = net.add_host(asn, {addr});
    w.responders.push_back(std::make_unique<DnsResponder>(*w.sim, host));
    w.sim->bind_udp(host, 53, w.responders.back().get());
    responder_addrs.push_back(addr);
  }
  w.targets.reserve(packets);
  for (std::uint64_t p = 0; p < packets; ++p) {
    w.targets.push_back(responder_addrs[p % responder_addrs.size()]);
  }
  return w;
}

scan::ScanConfig vantage_scan_config() {
  scan::ScanConfig sc;
  sc.qname = *dnswire::Name::parse("scan.odns-study.net");
  // Census pacing shape, compressed: 1 µs gaps keep hundreds of probes
  // per lookahead window; a short timeout bounds the drain.
  sc.probes_per_second = 1000000;
  sc.timeout = util::Duration::millis(200);
  sc.drain_settle = util::Duration::millis(10);
  return sc;
}

struct VantageRun {
  RunResult base;
  double critical_seconds = 0.0;
  double scanner_busy_share = 0.0;  // scanner shard / busiest shard
  bool scanner_is_max_busy = false;
};

void collect_vantage_stats(Simulator& sim, HostId scanner_host,
                           VantageRun& r) {
  double max_busy = 0.0;
  for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
    max_busy = std::max(max_busy, sim.shard_stats(s).busy_seconds);
  }
  const double scanner_busy =
      sim.shard_stats(sim.shard_of(scanner_host)).busy_seconds;
  r.critical_seconds = max_busy;
  r.scanner_busy_share = max_busy > 0.0 ? scanner_busy / max_busy : 0.0;
  r.scanner_is_max_busy = scanner_busy >= max_busy;
}

/// One pass: the full scan (start → run_to_completion) through either
/// the classic TransactionalScanner (multi_vantage=false) or a
/// VantageSet with one capture host per shard.
VantageRun run_vantage_workload(const Opts& opts, bool multi_vantage,
                                std::uint32_t shards, bool traced,
                                std::uint64_t packets, bool threads = false) {
  VantageWorld w = build_vantage_world(opts, shards, threads, packets);
  auto& sim = *w.sim;
  if (traced) sim.set_packet_trace_enabled(true);
  VantageRun r;
  const auto t0 = std::chrono::steady_clock::now();
  if (multi_vantage) {
    scan::VantageSet set(
        sim, vantage_scan_config(), w.scanner_addr,
        honeypot::attach_capture_vantages(sim.net(), /*mirror_as=*/1,
                                          kVantageShards));
    set.start(w.targets);
    set.run_to_completion();
  } else {
    scan::TransactionalScanner scanner(sim, w.scanner, vantage_scan_config());
    scanner.start(w.targets);
    scanner.run_to_completion();
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.base.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.base.counters = sim.counters();
  if (traced) r.base.trace_hash = sim.canonical_trace_digest();
  hash_routes(sim, w.targets, r.base);
  if (shards > 1) {
    collect_vantage_stats(sim, w.scanner, r);
  } else {
    r.critical_seconds = r.base.seconds;
    r.scanner_busy_share = 1.0;
    r.scanner_is_max_busy = true;
  }
  return r;
}

/// The multi_vantage_census row: single-vantage vs. multi-vantage on
/// the same serving-light world at 8 shards. Both sides are measured
/// as the parallel critical path from the sequential scheduler (max
/// per-shard CPU busy seconds, unpolluted by time-slicing); wall clock
/// of the threaded multi-vantage run is recorded alongside.
/// Determinism compares the 8-shard multi-vantage run against the
/// 1-shard *single-vantage* engine — the cross-architecture equality
/// the multi-vantage census promises.
WorkloadReport bench_multi_vantage_workload(const Opts& opts) {
  constexpr int kRepeats = 3;
  WorkloadReport rep;
  rep.name = "multi_vantage_census";
  rep.baseline_label = "single_vantage";
  rep.fast_label = "multi_vantage";
  rep.has_shard_stats = true;
  rep.has_vantage_stats = true;
  rep.shards = kVantageShards;
  rep.vantages = kVantageShards;
  VantageRun baseline, fast, fast_threaded;
  for (int rep_i = 0; rep_i < kRepeats; ++rep_i) {
    auto b = run_vantage_workload(opts, false, kVantageShards, false,
                                  opts.packets);
    auto f = run_vantage_workload(opts, true, kVantageShards, false,
                                  opts.packets);
    auto ft = run_vantage_workload(opts, true, kVantageShards, false,
                                   opts.packets, /*threads=*/true);
    if (rep_i == 0 || b.critical_seconds < baseline.critical_seconds) {
      baseline = std::move(b);
    }
    if (rep_i == 0 || f.critical_seconds < fast.critical_seconds) {
      fast = std::move(f);
    }
    if (rep_i == 0 || ft.base.seconds < fast_threaded.base.seconds) {
      fast_threaded = std::move(ft);
    }
  }
  rep.baseline_pps =
      static_cast<double>(opts.packets) / baseline.critical_seconds;
  rep.fast_pps = static_cast<double>(opts.packets) / fast.critical_seconds;
  rep.speedup = rep.fast_pps / rep.baseline_pps;
  rep.sharded_wall_pps =
      static_cast<double>(opts.packets) / fast_threaded.base.seconds;
  rep.scanner_busy_share_single = baseline.scanner_busy_share;
  rep.scanner_busy_share_multi = fast.scanner_busy_share;
  rep.scanner_is_max_busy_multi = fast.scanner_is_max_busy;
  const std::uint64_t vpackets = std::min<std::uint64_t>(opts.packets, 30000);
  const auto vb = run_vantage_workload(opts, false, 1, true, vpackets);
  const auto vf =
      run_vantage_workload(opts, true, kVantageShards, true, vpackets);
  rep.identical = counters_equal(vb.base.counters, vf.base.counters) &&
                  vb.base.trace_hash == vf.base.trace_hash &&
                  vb.base.route_hash == vf.base.route_hash &&
                  counters_equal(baseline.base.counters, fast.base.counters) &&
                  counters_equal(fast.base.counters,
                                 fast_threaded.base.counters) &&
                  baseline.base.route_hash == fast.base.route_hash;
  return rep;
}

// --- amplification campaign workload --------------------------------

/// Victim count of the amplification row: enough spoof targets to
/// spread reflection delivery over several shards.
constexpr int kAmpVictims = 4;

/// One reflective-amplification pass over the cross-shard relay world:
/// a single attacker injects spoofed-victim queries at the transparent
/// forwarders, every response crosses the fabric to a victim's meter.
/// The campaign's merged reflection log is folded into the identity
/// hash, so the A/B also proves the *attack-scenario* output is
/// shard-count-invariant at bench scale.
ShardedRun run_amplification_workload(const Opts& opts, std::uint32_t shards,
                                      bool traced, std::uint64_t packets,
                                      bool threads = false) {
  ShardedWorld w = build_sharded_world(opts, /*relay=*/true, shards, threads);
  auto& sim = *w.sim;
  if (traced) sim.set_packet_trace_enabled(true);

  scan::AmplificationConfig ac;
  ac.qname = *dnswire::Name::parse("amp.scan.odns-study.net");
  ac.probes_per_second = 1000000;  // census pacing shape, compressed
  ac.settle = util::Duration::seconds(1);
  scan::AmplificationCampaign campaign(sim, ac);
  campaign.add_attacker(w.scanner);
  for (int v = 0; v < kAmpVictims; ++v) {
    const std::uint32_t asn =
        2 + (static_cast<std::uint32_t>(v) * (opts.ases - 1)) / kAmpVictims;
    const Ipv4 addr{10, static_cast<std::uint8_t>(asn % 250),
                    static_cast<std::uint8_t>(asn / 250),
                    static_cast<std::uint8_t>(220 + v)};
    const auto host = sim.net().add_host(asn, {addr});
    campaign.add_victim(host, addr);
  }
  // One spoofed query per (victim, reflector) pair: cycle the TF row
  // until the campaign injects ~`packets` queries.
  const std::uint64_t per_victim =
      std::max<std::uint64_t>(packets / kAmpVictims, 1);
  std::vector<Ipv4> reflectors;
  reflectors.reserve(per_victim);
  for (std::uint64_t i = 0; i < per_victim; ++i) {
    reflectors.push_back(w.targets[i % w.targets.size()]);
  }

  ShardedRun r;
  const auto t0 = std::chrono::steady_clock::now();
  campaign.start(reflectors);
  campaign.run_to_completion();
  const auto t1 = std::chrono::steady_clock::now();
  r.base.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.base.counters = sim.counters();
  if (traced) r.base.trace_hash = sim.canonical_trace_digest();
  hash_routes(sim, w.targets, r.base);
  for (const auto& refl : campaign.merged_reflections()) {
    r.base.route_hash = fnv1a64(r.base.route_hash, refl.victim.value());
    r.base.route_hash = fnv1a64(r.base.route_hash, refl.src.value());
    r.base.route_hash = fnv1a64(
        r.base.route_hash, std::uint64_t{refl.src_port} << 48 |
                               std::uint64_t{refl.dst_port} << 32 |
                               (refl.truncated ? 1u : 0u));
    r.base.route_hash = fnv1a64(r.base.route_hash, refl.bytes);
    r.base.route_hash = fnv1a64(
        r.base.route_hash, static_cast<std::uint64_t>(refl.at.nanos()));
  }
  if (shards > 1) {
    for (std::uint32_t s = 0; s < sim.shard_count(); ++s) {
      const auto& stats = sim.shard_stats(s);
      r.critical_seconds = std::max(r.critical_seconds, stats.busy_seconds);
      r.mailbox_in += stats.mailbox_in;
      r.mailbox_overflows += stats.mailbox_overflows;
    }
  } else {
    r.critical_seconds = r.base.seconds;
  }
  return r;
}

/// The amplification_reflection row: 1-shard typed engine vs. the
/// N-shard run of the same campaign, critical-path measured like the
/// other sharded rows. Identity covers counters, the canonical trace,
/// router hops, AND the merged reflection log.
WorkloadReport bench_amplification_workload(const Opts& opts) {
  constexpr int kRepeats = 3;
  WorkloadReport rep;
  rep.name = "amplification_reflection";
  rep.baseline_label = "one_shard";
  rep.fast_label = "sharded_critical_path";
  rep.has_shard_stats = true;
  rep.shards = opts.shards;
  ShardedRun baseline, fast, fast_threaded;
  for (int rep_i = 0; rep_i < kRepeats; ++rep_i) {
    auto b = run_amplification_workload(opts, 1, false, opts.packets);
    auto f = run_amplification_workload(opts, opts.shards, false,
                                        opts.packets, /*threads=*/false);
    auto ft = run_amplification_workload(opts, opts.shards, false,
                                         opts.packets, /*threads=*/true);
    if (rep_i == 0 || b.critical_seconds < baseline.critical_seconds) {
      baseline = std::move(b);
    }
    if (rep_i == 0 || f.critical_seconds < fast.critical_seconds) {
      fast = std::move(f);
    }
    if (rep_i == 0 || ft.base.seconds < fast_threaded.base.seconds) {
      fast_threaded = std::move(ft);
    }
  }
  rep.baseline_pps =
      static_cast<double>(opts.packets) / baseline.critical_seconds;
  rep.fast_pps = static_cast<double>(opts.packets) / fast.critical_seconds;
  rep.speedup = rep.fast_pps / rep.baseline_pps;
  rep.sharded_wall_pps =
      static_cast<double>(opts.packets) / fast_threaded.base.seconds;
  rep.mailbox_in = fast.mailbox_in;
  rep.mailbox_overflows = fast.mailbox_overflows;
  const std::uint64_t vpackets = std::min<std::uint64_t>(opts.packets, 30000);
  const auto vb = run_amplification_workload(opts, 1, true, vpackets);
  const auto vf =
      run_amplification_workload(opts, opts.shards, true, vpackets);
  rep.identical =
      counters_equal(vb.base.counters, vf.base.counters) &&
      vb.base.trace_hash == vf.base.trace_hash &&
      vb.base.route_hash == vf.base.route_hash &&
      counters_equal(baseline.base.counters, fast.base.counters) &&
      counters_equal(fast.base.counters, fast_threaded.base.counters) &&
      baseline.base.route_hash == fast.base.route_hash &&
      fast.base.route_hash == fast_threaded.base.route_hash;
  return rep;
}

// --- batch delivery cohort workload ---------------------------------

/// World for the batch_delivery_cohort row: ring topology, one DNS
/// responder per non-vantage AS answering the two-record mirror shape.
/// `fast` selects the arena serving path (ArenaDnsResponder::on_batch);
/// the baseline serves through the heap codec (DnsResponder). Both run
/// on the batched delivery plane and send byte-identical responses, so
/// the A/B requires identical counters and canonical traces.
struct BatchWorld {
  std::unique_ptr<Simulator> sim;
  HostId scanner = netsim::kInvalidHost;
  std::vector<Ipv4> targets;
  std::vector<std::unique_ptr<netsim::App>> responders;
  NullSink sink;
};

BatchWorld build_batch_world(const Opts& opts, bool fast) {
  BatchWorld w;
  netsim::SimConfig cfg;
  cfg.seed = opts.seed;
  w.sim = std::make_unique<Simulator>(cfg);
  auto& net = w.sim->net();
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    netsim::AsConfig as;
    as.asn = i;
    as.internal_hops = opts.hops;
    net.add_as(as);
    net.announce(i, Prefix{Ipv4{10, static_cast<std::uint8_t>(i % 250), 0, 0},
                           16});
  }
  for (std::uint32_t i = 1; i <= opts.ases; ++i) {
    net.link(i, i % opts.ases + 1);  // ring
    if (i % 7 == 0 && i + opts.ases / 3 <= opts.ases) {
      net.link(i, i + opts.ases / 3);  // chord
    }
  }
  auto host_addr = [&](std::uint32_t asn, std::uint8_t lo) {
    return Ipv4{10, static_cast<std::uint8_t>(asn % 250),
                static_cast<std::uint8_t>(asn / 250), lo};
  };
  w.scanner = net.add_host(1, {host_addr(1, 1)});
  w.sim->bind_udp_wildcard(w.scanner, &w.sink);
  for (std::uint32_t asn = 2; asn <= opts.ases; ++asn) {
    const Ipv4 addr = host_addr(asn, 53);
    const auto host = net.add_host(asn, {addr});
    if (fast) {
      w.responders.push_back(
          std::make_unique<ArenaDnsResponder>(*w.sim, host));
    } else {
      w.responders.push_back(std::make_unique<DnsResponder>(*w.sim, host));
    }
    w.sim->bind_udp(host, 53, w.responders.back().get());
    w.targets.push_back(addr);
  }
  return w;
}

/// Destination-major injection: per drain, each responder receives a
/// back-to-back run of same-destination probes — the amplification /
/// retransmission-wave shape that lands whole delivery cohorts in one
/// timestamp bucket, which is exactly what the batch plane packs into
/// on_batch calls. The timed section covers injection + routing +
/// delivery + DNS serving + the response leg.
RunResult run_batch_workload(const Opts& opts, bool fast, bool traced,
                             std::uint64_t packets) {
  BatchWorld w = build_batch_world(opts, fast);
  auto& sim = *w.sim;
  if (traced) sim.set_packet_trace_enabled(true);
  const auto query = dnswire::encode(dnswire::make_query(
      0x777, *dnswire::Name::parse("scan.odns-study.net"),
      dnswire::RrType::a));
  RunResult r;
  constexpr std::uint64_t kRun = 64;  // per-destination run per drain
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t p = 0;
  while (p < packets) {
    for (const auto dst : w.targets) {
      for (std::uint64_t i = 0; i < kRun && p < packets; ++i, ++p) {
        netsim::SendOptions send;
        send.dst = dst;
        send.src_port = static_cast<std::uint16_t>(40000 + (p & 0xFFF));
        send.dst_port = 53;
        send.ttl = 255;
        send.payload = query;
        sim.send_udp(w.scanner, std::move(send));
      }
      if (p >= packets) break;
    }
    sim.run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.counters = sim.counters();
  if (traced) r.trace_hash = sim.canonical_trace_digest();
  hash_routes(sim, w.targets, r);
  return r;
}

WorkloadReport bench_batch_workload(const Opts& opts) {
  return timed_workload(
      opts, "batch_delivery_cohort", "batched_heap", "batched_arena",
      kBatchCohortDigest,
      [&](const Opts& o, bool fast, bool traced, std::uint64_t packets) {
        return run_batch_workload(o, fast, traced, packets);
      });
}

// --- arena codec serving row ----------------------------------------

/// Keeps timing-mode codec outputs observable without paying the
/// verification hash inside the timed loop.
volatile std::uint64_t g_codec_sink = 0;

/// Pure-codec A/B outside the simulator: serve `packets` mirror
/// transactions (decode the query, build the two-record answer, encode)
/// through the heap codec vs. the warmed-arena codec. The traced
/// verification pass hashes every output byte — the arena path must
/// produce the exact wire images the heap path does, message for
/// message; timing passes skip the hash.
RunResult run_codec_workload(bool arena, bool traced,
                             std::uint64_t packets) {
  auto query_wire = dnswire::encode(dnswire::make_query(
      0x4242, *dnswire::Name::parse("scan.odns-study.net"),
      dnswire::RrType::a));
  const auto name = *dnswire::Name::parse("scan.odns-study.net");
  RunResult r;
  const auto t0 = std::chrono::steady_clock::now();
  if (arena) {
    dnswire::WireArena rx;
    dnswire::WireArena tx;
    for (std::uint64_t p = 0; p < packets; ++p) {
      query_wire[0] = static_cast<std::uint8_t>(p >> 8);
      query_wire[1] = static_cast<std::uint8_t>(p);
      rx.reset();
      tx.reset();
      auto parsed = dnswire::decode_into(rx, query_wire);
      const dnswire::MessageView& q = parsed.value();
      auto answers = tx.alloc_array<dnswire::RecordView>(2);
      answers[0].name = q.questions.front().name;
      answers[0].type = dnswire::RrType::a;
      answers[0].ttl = 300;
      answers[0].rdata.tag = dnswire::RdataView::Tag::a;
      answers[0].rdata.a_addr = Ipv4{74, 125, 0, 10};
      answers[1] = answers[0];
      answers[1].rdata.a_addr = Ipv4{198, 51, 100, 200};
      dnswire::MessageView resp;
      resp.header.id = q.header.id;
      resp.header.qr = true;
      resp.header.aa = true;
      resp.header.rd = q.header.rd;
      resp.questions = q.questions;
      resp.answers = answers;
      const auto out = dnswire::encode_into(tx, resp);
      if (traced) {
        r.route_hash = fnv1a64(r.route_hash, out.size());
        for (const auto b : out) r.route_hash = fnv1a64(r.route_hash, b);
      } else {
        g_codec_sink = g_codec_sink + out.size();
      }
    }
  } else {
    for (std::uint64_t p = 0; p < packets; ++p) {
      query_wire[0] = static_cast<std::uint8_t>(p >> 8);
      query_wire[1] = static_cast<std::uint8_t>(p);
      auto parsed = dnswire::decode(query_wire);
      auto resp = dnswire::make_response(parsed.value());
      resp.header.aa = true;
      resp.answers.push_back(
          dnswire::ResourceRecord::a(name, Ipv4{74, 125, 0, 10}, 300));
      resp.answers.push_back(
          dnswire::ResourceRecord::a(name, Ipv4{198, 51, 100, 200}, 300));
      const auto out = dnswire::encode(resp);
      if (traced) {
        r.route_hash = fnv1a64(r.route_hash, out.size());
        for (const auto b : out) r.route_hash = fnv1a64(r.route_hash, b);
      } else {
        g_codec_sink = g_codec_sink + out.size();
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

WorkloadReport bench_codec_workload(const Opts& opts) {
  return timed_workload(opts, "arena_codec_serve", "heap", "arena",
                        kArenaCodecDigest,
                        [&](const Opts&, bool fast, bool traced,
                            std::uint64_t packets) {
                          return run_codec_workload(fast, traced, packets);
                        });
}

// --- route span-miss row --------------------------------------------

/// Topology scale of the route_span_miss world: the Internet-scale
/// census shape (bulk population, eyeball ASes x4) shrunk until every
/// ordered AS pair can be routed in a few seconds.
constexpr double kSpanMissScale = 0.002;

/// All-pairs route digest of that world at the pinned seed, recorded
/// from the per-source full-BFS route tables the early-exit BFS
/// replaced (same AS paths, router hops and tie-breaks).
constexpr std::uint64_t kSpanMissDigest = 0x5d3073c7dad9619eull;

struct SpanMissRun {
  double seconds = 0.0;
  std::uint64_t digest = kFnvBasis;
  std::uint64_t pairs = 0;
};

/// Routes every (source AS, destination AS) pair through one private
/// RouteCache, cleared after each source, so every lookup is a cold
/// span miss: one early-exit BFS plus the span build. Destinations are
/// one probe host per AS from 198.18/15 (the benchmarking range, unused
/// by the world builder). Hashes every AS path and router hop.
SpanMissRun run_span_miss(const netsim::Network& net,
                          const std::vector<Ipv4>& probes) {
  SpanMissRun r;
  netsim::RouteCache cache;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Asn from : net.all_asns()) {
    for (const Ipv4 dst : probes) {
      const auto view = net.route_view(cache, from, dst);
      ++r.pairs;
      if (!view) {
        r.digest = fnv1a64(r.digest, 0xFFFFFFFFu);
        continue;
      }
      r.digest = fnv1a64(r.digest, view->as_path->size());
      for (const Asn asn : *view->as_path) r.digest = fnv1a64(r.digest, asn);
      r.digest = fnv1a64(r.digest, view->router_hops->size());
      for (const Ipv4 hop : *view->router_hops) {
        r.digest = fnv1a64(r.digest, hop.value());
      }
    }
    cache.clear();
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  return r;
}

/// The route_span_miss row: cold-cache route computation over every
/// ordered AS pair of a census-shaped world, best of 3 passes, so the
/// routing layer has its own number. Gated (exit 2) on the pinned
/// all-pairs digest; every pass must also agree with the others.
WorkloadReport bench_span_miss_workload() {
  constexpr int kRepeats = 3;
  topo::TopologyConfig cfg;
  cfg.scale = kSpanMissScale;
  cfg.seed = Opts::pinned().seed;
  cfg.sim.seed = Opts::pinned().seed;
  cfg.bulk_population = true;
  cfg.eyeball_as_multiplier = 4.0;
  const auto world = topo::TopologyBuilder::build(cfg);
  auto& net = world->sim().net();
  std::vector<Ipv4> probes;
  std::uint32_t next = (198u << 24) | (18u << 16) | 1u;
  for (const Asn asn : net.all_asns()) {
    probes.emplace_back(next++);
    (void)net.add_host(asn, {probes.back()});
  }
  net.freeze_addr_plane();

  WorkloadReport rep;
  rep.name = "route_span_miss";
  rep.fast_label = "cold_span";
  rep.has_span_stats = true;
  rep.span_ases = net.as_count();
  SpanMissRun best;
  rep.identical = true;
  for (int i = 0; i < kRepeats; ++i) {
    const SpanMissRun run = run_span_miss(net, probes);
    rep.identical = rep.identical && (i == 0 || run.digest == best.digest);
    if (i == 0 || run.seconds < best.seconds) best = run;
  }
  rep.span_pairs = best.pairs;
  rep.fast_pps = static_cast<double>(best.pairs) / best.seconds;
  rep.digest = best.digest;
  rep.has_count_gate = true;
  rep.count_gate_ok = best.digest == kSpanMissDigest;
  return rep;
}

// --- DNSRoute++ trace row --------------------------------------------

/// Topology scale of the dnsroute_trace world: the paper-census shape
/// (default CensusConfig: per-host nodes, one shard, single-vantage
/// scanner), small enough to census and trace three times in seconds.
constexpr double kTraceScale = 0.01;

/// Digest of every TracePath field of the trace at the pinned seed,
/// recorded while DNSRoute++ still armed one timer per probe up front
/// and matched replies through per-probe maps.
constexpr std::uint64_t kTraceDigest = 0x5ac728366ae5aedaull;

/// Event-pool high-water ceiling of census plus trace. Timers armed up
/// front held a pool slot per planned probe (175,886 slots for the
/// 175,170-probe trace); with one pending pacing timer per sender the
/// pool holds in-flight work (4,879 slots), so the ceiling leaves 2x.
constexpr std::uint64_t kTracePoolCeiling = 10000;

struct TraceRun {
  double seconds = 0.0;
  std::uint64_t digest = kFnvBasis;
  std::uint64_t targets = 0;
  std::uint64_t probes = 0;
  std::size_t pool_slots = 0;
};

/// Censuses the world, then times DNSRoute++ (default max TTL) over
/// every transparent forwarder it classified, from the scanner host.
TraceRun run_dnsroute_trace() {
  core::CensusConfig cfg;
  cfg.topology.scale = kTraceScale;
  cfg.topology.seed = Opts::pinned().seed;
  core::CensusResult census = core::run_census(cfg);
  std::vector<Ipv4> targets;
  for (const auto& item : census.classified) {
    if (item.klass == classify::Klass::transparent_forwarder) {
      targets.push_back(item.txn.target);
    }
  }
  Simulator& sim = census.world->sim();
  sim.clear_vantage_capture();
  dnsroute::DnsrouteConfig rc;
  rc.qname = census.world->scan_name();
  dnsroute::DnsroutePlusPlus tracer(sim, census.world->scanner_host(), rc);

  TraceRun r;
  const auto t0 = std::chrono::steady_clock::now();
  const auto paths = tracer.run(targets);
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.targets = targets.size();
  r.probes = targets.size() * static_cast<std::uint64_t>(rc.max_ttl);
  r.pool_slots = sim.event_pool_slots();
  for (const auto& p : paths) {
    r.digest = fnv1a64(r.digest, p.target.value());
    r.digest = fnv1a64(r.digest, static_cast<std::uint32_t>(p.target_distance));
    r.digest = fnv1a64(r.digest, p.got_answer);
    r.digest = fnv1a64(r.digest, p.resolver.value());
    r.digest = fnv1a64(r.digest, static_cast<std::uint32_t>(p.answer_ttl));
    for (const auto& hop : p.hops) {
      r.digest = fnv1a64(r.digest, hop.responded);
      r.digest = fnv1a64(r.digest, hop.addr.value());
    }
  }
  return r;
}

/// The dnsroute_trace row: best of 3 passes, each on a fresh census
/// (a trace warms resolver caches, so passes never share a world).
/// Gated (exit 2) on the pinned path digest and the pool ceiling;
/// every pass must also agree with the others.
WorkloadReport bench_dnsroute_trace_workload() {
  constexpr int kRepeats = 3;
  WorkloadReport rep;
  rep.name = "dnsroute_trace";
  rep.fast_label = "dnsroute";
  rep.has_trace_stats = true;
  rep.identical = true;
  TraceRun best;
  for (int i = 0; i < kRepeats; ++i) {
    const TraceRun run = run_dnsroute_trace();
    rep.identical = rep.identical && (i == 0 || run.digest == best.digest);
    rep.trace_pool_slots = std::max<std::uint64_t>(rep.trace_pool_slots,
                                                   run.pool_slots);
    if (i == 0 || run.seconds < best.seconds) best = run;
  }
  rep.trace_targets = best.targets;
  rep.trace_probes = best.probes;
  rep.trace_pool_ceiling = kTracePoolCeiling;
  rep.fast_pps = static_cast<double>(best.probes) / best.seconds;
  rep.digest = best.digest;
  rep.has_count_gate = true;
  rep.count_gate_ok = best.digest == kTraceDigest &&
                      rep.trace_pool_slots <= kTracePoolCeiling;
  return rep;
}

// --- million-host census row ----------------------------------------

/// Resets the kernel's peak-RSS watermark (Linux: "5" into
/// /proc/self/clear_refs) so the VmHWM read after a census run
/// reflects that run, not whichever earlier workload was hungriest.
/// Best-effort: where the write is refused, VmHWM stays a process-wide
/// upper bound.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5\n"; }

/// Peak resident set (VmHWM) in kB from /proc/self/status; 0 when the
/// file is unavailable (non-Linux).
std::uint64_t read_peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Shard count of the census A/B's sharded side (the acceptance point:
/// 1-shard and 8-shard census tables must hash identically).
constexpr std::uint32_t kCensusShards = 8;

struct CensusRun {
  double seconds = 0.0;
  double critical_seconds = 0.0;
  std::uint64_t hosts = 0;
  std::uint64_t ases = 0;
  std::uint64_t census_hash = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t mailbox_in = 0;
  std::uint64_t mailbox_overflows = 0;
  netsim::SimCounters counters;
  core::DegradationReport degradation;
};

/// One full census over the Internet-scale world: bulk population
/// (nodes::ForwarderBank rows instead of per-host heap nodes), the
/// eyeball AS layer widened to O(10⁴) ASes, per-shard capture
/// vantages, streaming correlation, and no per-probe log retention —
/// the million-host configuration of docs/architecture.md. Runs the
/// sequential scheduler in both modes so the sharded critical path
/// (max per-shard busy seconds) is unpolluted by time-slicing.
CensusRun run_million_census(const Opts& opts, std::uint32_t shards) {
  core::CensusConfig cfg;
  cfg.topology.scale = opts.census_scale;
  cfg.topology.seed = opts.seed;
  cfg.topology.sim.seed = opts.seed;
  cfg.topology.bulk_population = true;
  cfg.topology.eyeball_as_multiplier = 4.0;
  cfg.topology.sim.shard_threads = false;
  cfg.sim_shards = shards;
  cfg.shard_interleaved_targets = true;
  cfg.vantages = shards;
  cfg.streaming_correlation = true;
  cfg.retain_transactions = false;
  cfg.scan_timeout = util::Duration::seconds(2);
  cfg.probes_per_second = 100000;
  cfg.correlate_flush = util::Duration::millis(250);

  reset_peak_rss();
  const auto t0 = std::chrono::steady_clock::now();
  auto result = core::run_census(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  CensusRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.hosts = result.world->ground_truth().size();
  r.ases = result.world->asn_country_.size();
  r.census_hash = classify::census_fingerprint(result.census);
  r.peak_rss_kb = read_peak_rss_kb();
  r.peak_pending = result.stream_stats.peak_pending_probes;
  r.counters = result.world->sim().counters();
  r.degradation = result.degradation;
  if (shards > 1) {
    for (std::uint32_t s = 0; s < result.world->sim().shard_count(); ++s) {
      const auto& stats = result.world->sim().shard_stats(s);
      r.critical_seconds = std::max(r.critical_seconds, stats.busy_seconds);
      r.mailbox_in += stats.mailbox_in;
      r.mailbox_overflows += stats.mailbox_overflows;
    }
  } else {
    r.critical_seconds = r.seconds;
  }
  return r;
}

/// The million_host_census row: the same Internet-scale census once on
/// 1 shard and once on kCensusShards, single pass each (the world is
/// ≥10⁶ hosts; best-of-N repeats would triple a minutes-long row for
/// noise rejection the size of the run already provides). Identity is
/// the product-level check — the classify::census_fingerprint of the
/// full Census tables plus the summed packet counters. At full
/// --census-scale the world must clear ≥10⁶ hosts and ≥10⁴ ASes.
WorkloadReport bench_million_host_workload(const Opts& opts) {
  WorkloadReport rep;
  rep.name = "million_host_census";
  rep.baseline_label = "one_shard";
  rep.fast_label = "sharded_critical_path";
  rep.has_shard_stats = true;
  rep.has_census_stats = true;
  rep.shards = kCensusShards;
  const CensusRun baseline = run_million_census(opts, 1);
  const CensusRun fast = run_million_census(opts, kCensusShards);
  rep.baseline_pps = static_cast<double>(baseline.hosts) / baseline.seconds;
  rep.fast_pps = static_cast<double>(fast.hosts) / fast.critical_seconds;
  rep.speedup = rep.fast_pps / rep.baseline_pps;
  rep.sharded_wall_pps = static_cast<double>(fast.hosts) / fast.seconds;
  rep.mailbox_in = fast.mailbox_in;
  rep.mailbox_overflows = fast.mailbox_overflows;
  rep.census_hosts = fast.hosts;
  rep.census_ases = fast.ases;
  rep.peak_rss_kb = std::max(baseline.peak_rss_kb, fast.peak_rss_kb);
  rep.peak_pending_probes = std::max(baseline.peak_pending, fast.peak_pending);
  rep.census_hash = fast.census_hash;
  rep.identical = baseline.census_hash == fast.census_hash &&
                  baseline.hosts == fast.hosts &&
                  counters_equal(baseline.counters, fast.counters);
  if (opts.census_scale >= 0.5 &&
      (rep.census_hosts < 1000000 || rep.census_ases < 10000)) {
    std::cerr << "FAIL: million_host_census world too small at full scale: "
              << rep.census_hosts << " hosts, " << rep.census_ases
              << " ASes (need >= 1000000 / >= 10000)\n";
    std::exit(3);
  }
  return rep;
}

/// One streaming census on an adverse network: packet loss plus the
/// full fault plane (jitter, reordering, duplication, payload
/// corruption) with scanner retransmission absorbing the damage. A
/// tenth of the million-host world — the fault plane's per-packet
/// decisions price every hop, so the row measures that overhead, not
/// the world build.
CensusRun run_faulted_census(const Opts& opts, std::uint32_t shards,
                             double loss_rate, std::uint32_t retries) {
  core::CensusConfig cfg;
  cfg.topology.scale = opts.census_scale * 0.1;
  cfg.topology.seed = opts.seed;
  cfg.topology.sim.seed = opts.seed;
  cfg.topology.bulk_population = true;
  cfg.topology.eyeball_as_multiplier = 4.0;
  cfg.topology.sim.shard_threads = false;
  cfg.topology.sim.loss_rate = loss_rate;
  cfg.topology.sim.faults.jitter_rate = 0.3;
  cfg.topology.sim.faults.jitter_max = util::Duration::millis(5);
  cfg.topology.sim.faults.reorder_rate = 0.15;
  cfg.topology.sim.faults.dup_rate = 0.1;
  cfg.topology.sim.faults.corrupt_rate = 0.05;
  cfg.sim_shards = shards;
  cfg.shard_interleaved_targets = true;
  cfg.vantages = shards;
  cfg.streaming_correlation = true;
  cfg.retain_transactions = false;
  cfg.scan_timeout = util::Duration::seconds(2);
  cfg.scan_max_retries = retries;
  cfg.scan_retry_backoff = util::Duration::millis(500);
  cfg.probes_per_second = 100000;
  cfg.correlate_flush = util::Duration::millis(250);

  reset_peak_rss();
  const auto t0 = std::chrono::steady_clock::now();
  auto result = core::run_census(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  CensusRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.hosts = result.world->ground_truth().size();
  r.ases = result.world->asn_country_.size();
  r.census_hash = classify::census_fingerprint(result.census);
  r.peak_rss_kb = read_peak_rss_kb();
  r.peak_pending = result.stream_stats.peak_pending_probes;
  r.counters = result.world->sim().counters();
  r.degradation = result.degradation;
  if (shards > 1) {
    for (std::uint32_t s = 0; s < result.world->sim().shard_count(); ++s) {
      const auto& stats = result.world->sim().shard_stats(s);
      r.critical_seconds = std::max(r.critical_seconds, stats.busy_seconds);
      r.mailbox_in += stats.mailbox_in;
      r.mailbox_overflows += stats.mailbox_overflows;
    }
  } else {
    r.critical_seconds = r.seconds;
  }
  return r;
}

/// The fault_plane_census row: the adverse-network census once on 1
/// shard and once on kCensusShards. Identity is the faulted census
/// fingerprint plus the full packet counters — fault fates included —
/// which is the chaos-differential guarantee of
/// tests/fault_plane_test.cpp at bench scale. The coverage sweep
/// (loss × retransmission, 1 shard) is recorded ungated: it documents
/// how far retries recover census coverage on a lossy network.
WorkloadReport bench_fault_plane_workload(const Opts& opts) {
  WorkloadReport rep;
  rep.name = "fault_plane_census";
  rep.baseline_label = "one_shard";
  rep.fast_label = "sharded_critical_path";
  rep.has_shard_stats = true;
  rep.has_census_stats = true;
  rep.has_fault_stats = true;
  rep.shards = kCensusShards;
  const CensusRun baseline =
      run_faulted_census(opts, 1, /*loss_rate=*/0.05, /*retries=*/2);
  const CensusRun fast =
      run_faulted_census(opts, kCensusShards, /*loss_rate=*/0.05,
                         /*retries=*/2);
  rep.baseline_pps = static_cast<double>(baseline.hosts) / baseline.seconds;
  rep.fast_pps = static_cast<double>(fast.hosts) / fast.critical_seconds;
  rep.speedup = rep.fast_pps / rep.baseline_pps;
  rep.sharded_wall_pps = static_cast<double>(fast.hosts) / fast.seconds;
  rep.mailbox_in = fast.mailbox_in;
  rep.mailbox_overflows = fast.mailbox_overflows;
  rep.census_hosts = fast.hosts;
  rep.census_ases = fast.ases;
  rep.peak_rss_kb = std::max(baseline.peak_rss_kb, fast.peak_rss_kb);
  rep.peak_pending_probes = std::max(baseline.peak_pending, fast.peak_pending);
  rep.census_hash = fast.census_hash;
  rep.coverage = fast.degradation.coverage();
  rep.probes_retried = fast.degradation.scan.probes_retried;
  rep.responses_duplicate = fast.degradation.scan.responses_duplicate;
  rep.responses_corrupt = fast.degradation.scan.responses_corrupt;
  rep.ases_degraded = fast.degradation.ases_degraded;
  // SimCounters::operator== covers the fault counters (jittered,
  // reordered, duplicated, corrupted, outage drops) the legacy
  // counters_equal predates.
  rep.identical = baseline.census_hash == fast.census_hash &&
                  baseline.hosts == fast.hosts &&
                  baseline.counters == fast.counters &&
                  baseline.degradation.scan.probes_retried ==
                      fast.degradation.scan.probes_retried;
  rep.coverage_loss1_r0 =
      run_faulted_census(opts, 1, 0.01, 0).degradation.coverage();
  rep.coverage_loss1_r2 =
      run_faulted_census(opts, 1, 0.01, 2).degradation.coverage();
  rep.coverage_loss5_r0 =
      run_faulted_census(opts, 1, 0.05, 0).degradation.coverage();
  rep.coverage_loss5_r2 = fast.degradation.coverage();
  return rep;
}

void print_report(const WorkloadReport& r) {
  const char* unit = r.has_census_stats  ? " hosts/s"
                     : r.has_span_stats ? " spans/s"
                     : r.has_trace_stats ? " probes/s"
                                         : " pkts/s";
  std::cout << r.name << "\n";
  if (!r.baseline_label.empty()) {
    std::cout << "  " << r.baseline_label << ": "
              << static_cast<std::uint64_t>(r.baseline_pps) << unit << "\n";
  }
  std::cout << "  " << r.fast_label << ":   "
            << static_cast<std::uint64_t>(r.fast_pps) << unit << "\n";
  if (!r.baseline_label.empty()) {
    std::cout << "  speedup:  " << r.speedup << "x\n";
  }
  if (r.has_cache_stats) {
    std::cout << "  cache:    " << r.cache_hits << " hits / "
              << r.cache_misses << " misses (expected "
              << r.expected_cache_misses << " misses)\n";
  }
  if (r.allocation_ceiling > 0) {
    std::cout << "  engine:   " << r.verify.events << " events, pool "
              << r.verify.pool_slots << " slots, " << r.verify.allocations
              << " allocations (ceiling " << r.allocation_ceiling << ")\n";
  }
  if (r.has_count_gate) {
    std::cout << "  count gate: " << (r.count_gate_ok ? "pass" : "FAIL")
              << "\n";
  }
  if (r.has_shard_stats && !r.has_vantage_stats) {
    std::cout << "  shards:   " << r.shards << " (wall "
              << static_cast<std::uint64_t>(r.sharded_wall_pps) << unit
              << ", mailbox " << r.mailbox_in << " msgs, "
              << r.mailbox_overflows << " spills)\n";
  }
  if (r.has_census_stats) {
    std::cout << "  world:    " << r.census_hosts << " hosts / "
              << r.census_ases << " ASes\n"
              << "  memory:   peak RSS " << r.peak_rss_kb / 1024
              << " MB, streaming window " << r.peak_pending_probes
              << " pending probes\n";
  }
  if (r.has_span_stats) {
    std::cout << "  world:    " << r.span_ases << " ASes, " << r.span_pairs
              << " (source AS, destination AS) pairs per pass\n";
  }
  if (r.has_trace_stats) {
    std::cout << "  trace:    " << r.trace_targets << " targets, "
              << r.trace_probes << " probes per pass, pool "
              << r.trace_pool_slots << " slots (ceiling "
              << r.trace_pool_ceiling << ")\n";
  }
  if (r.has_fault_stats) {
    std::cout << "  faults:   coverage " << r.coverage * 100.0 << "% ("
              << r.probes_retried << " retries, " << r.responses_duplicate
              << " dup / " << r.responses_corrupt << " corrupt responses, "
              << r.ases_degraded << " ASes degraded)\n"
              << "  sweep:    loss 1% " << r.coverage_loss1_r0 * 100.0
              << "% -> " << r.coverage_loss1_r2 * 100.0
              << "% with retries; loss 5% " << r.coverage_loss5_r0 * 100.0
              << "% -> " << r.coverage_loss5_r2 * 100.0 << "%\n";
  }
  if (r.has_vantage_stats) {
    std::cout << "  shards:   " << r.shards << " / vantages " << r.vantages
              << " (wall " << static_cast<std::uint64_t>(r.sharded_wall_pps)
              << " pkts/s)\n"
              << "  scanner shard busy share: " << r.scanner_busy_share_single
              << " -> " << r.scanner_busy_share_multi << " (max-busy: "
              << (r.scanner_is_max_busy_multi ? "STILL SCANNER" : "no")
              << ")\n";
  }
  if (r.digest != 0) {
    std::cout << "  digest:   " << std::hex << r.digest << std::dec << "\n";
  }
  std::cout << "  determinism (counters + trace + router hops): "
            << (r.identical ? "identical" : "MISMATCH") << "\n\n";
}

void write_json(const Opts& opts, const std::vector<WorkloadReport>& reps) {
  std::ofstream out(opts.json_path);
  out << "{\n"
      << "  \"bench\": \"bench_netsim\",\n"
      << "  \"unit\": \"packets_per_second\",\n"
      << "  \"config\": {\"packets\": " << opts.packets
      << ", \"ases\": " << opts.ases << ", \"internal_hops\": " << opts.hops
      << ", \"dests\": " << opts.dests << ", \"seed\": " << opts.seed
      << ", \"shards\": " << opts.shards
      << ", \"census_scale\": " << opts.census_scale
      << ", \"cores\": " << std::thread::hardware_concurrency() << "},\n"
      << "  \"workloads\": [\n";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const auto& r = reps[i];
    out << "    {\"name\": \"" << r.name << "\"";
    if (!r.baseline_label.empty()) {
      out << ", \"" << r.baseline_label
          << "_pps\": " << static_cast<std::uint64_t>(r.baseline_pps);
    }
    out << ", \"" << r.fast_label
        << "_pps\": " << static_cast<std::uint64_t>(r.fast_pps);
    if (!r.baseline_label.empty()) out << ", \"speedup\": " << r.speedup;
    if (r.has_cache_stats) {
      out << ", \"cache_hits\": " << r.cache_hits
          << ", \"cache_misses\": " << r.cache_misses
          << ", \"expected_cache_misses\": " << r.expected_cache_misses;
    }
    if (r.allocation_ceiling > 0) {
      out << ", \"events_executed\": " << r.verify.events
          << ", \"event_pool_slots\": " << r.verify.pool_slots
          << ", \"timed_allocations\": " << r.verify.allocations
          << ", \"allocation_ceiling\": " << r.allocation_ceiling;
    }
    if (r.has_count_gate) {
      out << ", \"count_gate\": " << (r.count_gate_ok ? "true" : "false");
    }
    if (r.digest != 0) {
      out << ", \"digest\": \"" << std::hex << r.digest << std::dec << "\"";
    }
    if (r.has_shard_stats && !r.has_vantage_stats) {
      out << ", \"shards\": " << r.shards << ", \"sharded_wall_pps\": "
          << static_cast<std::uint64_t>(r.sharded_wall_pps)
          << ", \"mailbox_msgs\": " << r.mailbox_in
          << ", \"mailbox_spills\": " << r.mailbox_overflows;
    }
    if (r.has_census_stats) {
      out << ", \"unit\": \"hosts_per_second\", \"hosts\": " << r.census_hosts
          << ", \"ases\": " << r.census_ases
          << ", \"peak_rss_kb\": " << r.peak_rss_kb
          << ", \"peak_pending_probes\": " << r.peak_pending_probes
          << ", \"census_hash\": \"" << std::hex << r.census_hash << std::dec
          << "\"";
    }
    if (r.has_span_stats) {
      out << ", \"unit\": \"spans_per_second\", \"ases\": " << r.span_ases
          << ", \"pairs\": " << r.span_pairs;
    }
    if (r.has_trace_stats) {
      out << ", \"unit\": \"probes_per_second\", \"targets\": "
          << r.trace_targets << ", \"probes\": " << r.trace_probes
          << ", \"event_pool_slots\": " << r.trace_pool_slots
          << ", \"event_pool_ceiling\": " << r.trace_pool_ceiling;
    }
    if (r.has_fault_stats) {
      out << ", \"coverage\": " << r.coverage
          << ", \"probes_retried\": " << r.probes_retried
          << ", \"responses_duplicate\": " << r.responses_duplicate
          << ", \"responses_corrupt\": " << r.responses_corrupt
          << ", \"ases_degraded\": " << r.ases_degraded
          << ", \"coverage_loss1_retries0\": " << r.coverage_loss1_r0
          << ", \"coverage_loss1_retries2\": " << r.coverage_loss1_r2
          << ", \"coverage_loss5_retries0\": " << r.coverage_loss5_r0
          << ", \"coverage_loss5_retries2\": " << r.coverage_loss5_r2;
    }
    if (r.has_vantage_stats) {
      out << ", \"shards\": " << r.shards << ", \"vantages\": " << r.vantages
          << ", \"multi_vantage_wall_pps\": "
          << static_cast<std::uint64_t>(r.sharded_wall_pps)
          << ", \"scanner_busy_share_single\": " << r.scanner_busy_share_single
          << ", \"scanner_busy_share_multi\": " << r.scanner_busy_share_multi
          << ", \"scanner_is_max_busy_multi\": "
          << (r.scanner_is_max_busy_multi ? "true" : "false");
    }
    out << ", \"deterministic\": " << (r.identical ? "true" : "false")
        << "}" << (i + 1 < reps.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Opts opts = Opts::parse(argc, argv);
  std::cout << "bench_netsim: route-cache + event-engine fast paths (ases="
            << opts.ases << " hops=" << opts.hops << " dests=" << opts.dests
            << " packets=" << opts.packets << " seed=" << opts.seed << ")\n\n";

  std::vector<WorkloadReport> reps;
  reps.push_back(bench_workload(opts, "repeated_destination_scan",
                                /*anycast=*/false));
  reps.push_back(bench_workload(opts, "mixed_anycast", /*anycast=*/true));
  reps.push_back(bench_addr_plane_workload(opts));
  reps.push_back(bench_sched_workload(opts, "sched_burst_same_timestamp",
                                      /*timer_mix=*/false));
  reps.push_back(bench_sched_workload(opts, "sched_long_horizon_timer_mix",
                                      /*timer_mix=*/true));
  reps.push_back(bench_sharded_workload(opts, "sharded_census_scan",
                                        /*relay=*/false));
  reps.push_back(bench_sharded_workload(opts, "sharded_cross_shard_relay",
                                        /*relay=*/true));
  reps.push_back(bench_multi_vantage_workload(opts));
  reps.push_back(bench_amplification_workload(opts));
  reps.push_back(bench_codec_workload(opts));
  reps.push_back(bench_batch_workload(opts));
  reps.push_back(bench_span_miss_workload());
  reps.push_back(bench_dnsroute_trace_workload());
  reps.push_back(bench_million_host_workload(opts));
  reps.push_back(bench_fault_plane_workload(opts));
  for (const auto& r : reps) print_report(r);

  if (!opts.json_path.empty()) write_json(opts, reps);

  for (const auto& r : reps) {
    if (!r.identical) {
      std::cerr << "FAIL: " << r.name << ": runs diverged from each other "
                   "or from the row's golden digest\n";
      return 1;
    }
  }
  for (const auto& r : reps) {
    if (!r.count_gate_ok) {
      std::cerr << "FAIL: " << r.name
                << " missed its pinned route-cache / scheduler counts, "
                   "route or trace digest, or pool ceiling\n";
      return 2;
    }
    if (opts.min_speedup > 0.0 && !r.baseline_label.empty() &&
        r.speedup < opts.min_speedup) {
      std::cerr << "FAIL: " << r.name << " speedup " << r.speedup
                << "x below required " << opts.min_speedup << "x\n";
      return 2;
    }
  }
  for (const auto& r : reps) {
    if (opts.max_rss_regression_kb > 0 && r.peak_rss_kb > 0 &&
        r.peak_rss_kb > opts.max_rss_regression_kb) {
      std::cerr << "FAIL: " << r.name << " peak RSS " << r.peak_rss_kb
                << " kB above the --max-rss-regression ceiling "
                << opts.max_rss_regression_kb << " kB\n";
      return 4;
    }
  }
  return 0;
}

// Determinism suite for the sharded simulator (docs/architecture.md,
// "Sharded execution"): N-shard runs (N = 1, 2, 4, 8) must produce
// byte-identical SimCounters, packet traces, and census/classification
// output versus the single-threaded engine, on worker threads and
// sequentially, for several seeds, with loss, and under mailbox
// backpressure. The cross-shard merge rule under test is documented in
// docs/event-engine.md ("Cross-shard merge rule").
//
// The MultiVantage suites extend the same bar to the multi-vantage
// census ("Multi-vantage census", docs/architecture.md): a VantageSet
// of per-shard capture hosts must reproduce the single-vantage
// single-threaded run byte for byte — counters, canonical trace,
// transactions, and the full classify::Census — for any shard count,
// across seeds, loss, and target interleaving.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "classify/analysis.hpp"
#include "core/census.hpp"
#include "honeypot/lab.hpp"
#include "nodes/forwarder.hpp"
#include "scan/txscanner.hpp"
#include "scan/vantage.hpp"
#include "testutil.hpp"

namespace odns {
namespace {

using netsim::HostId;
using netsim::ShardStats;
using netsim::SimConfig;
using netsim::SimCounters;
using netsim::Simulator;
using netsim::TraceRecord;
using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;
using util::Prefix;

/// Summary of one MiniWorld scan run: everything the engine promises
/// to keep invariant across shard counts.
struct RunFingerprint {
  SimCounters counters;
  std::uint64_t trace_digest = 0;
  std::string transactions;
  std::uint64_t events = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) =
      default;
};

std::string render_transactions(const std::vector<scan::Transaction>& txns) {
  std::ostringstream out;
  for (const auto& t : txns) {
    out << t.target.to_string() << ' ' << t.answered << ' '
        << t.response_src.to_string() << ' ' << t.rtt.count_nanos() << ' '
        << static_cast<int>(t.rcode);
    for (const auto& a : t.answer_addrs) out << ' ' << a.to_string();
    out << '\n';
  }
  return out.str();
}

/// Builds the shared scan workload into `world`: a row of transparent
/// forwarders relaying to the open resolver, the resolver itself, and
/// one unresponsive address. Returns the target list.
std::vector<Ipv4> build_scan_targets(
    MiniWorld& world, int forwarders,
    std::vector<std::unique_ptr<TransparentForwarder>>& tfs) {
  std::vector<Ipv4> targets;
  for (int i = 0; i < forwarders; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    const HostId host = world.add_access_host(addr);
    tfs.push_back(std::make_unique<TransparentForwarder>(
        world.sim, host, test::kResolverAddr));
    tfs.back()->install();
    targets.push_back(addr);
  }
  targets.push_back(test::kResolverAddr);
  targets.push_back(Ipv4{20, 0, 9, 200});  // unresponsive: ICMP path
  return targets;
}

scan::ScanConfig mini_scan_config(const MiniWorld& world, bool interleave) {
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(4);
  sc.shard_interleave = interleave;
  return sc;
}

/// MiniWorld + the shared workload, scanned by the classic
/// single-vantage scanner: the full census packet flow (probe → TF
/// relay → resolver iteration through root/TLD/auth → mirror answer →
/// response straight back to the scanner), which crosses shards on
/// every leg when the five ASes are partitioned.
RunFingerprint run_mini_scan(SimConfig cfg, int forwarders,
                             bool interleave = false) {
  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);

  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  const auto targets = build_scan_targets(world, forwarders, tfs);

  scan::TransactionalScanner scanner(world.sim, world.scanner_host,
                                     mini_scan_config(world, interleave));
  scanner.start(targets);
  scanner.run_to_completion();

  RunFingerprint fp;
  fp.counters = world.sim.counters();
  fp.trace_digest = world.sim.canonical_trace_digest();
  fp.transactions = render_transactions(scanner.correlate());
  fp.events = world.sim.events_executed();
  return fp;
}

/// Same workload, measured by a multi-vantage VantageSet: `vantages`
/// capture hosts mirroring the scanner AS's attachment, spoofing the
/// scanner address, with responses delivered shard-locally. Must be
/// byte-identical to run_mini_scan for every shard/vantage count.
RunFingerprint run_mini_vantage_scan(SimConfig cfg, int forwarders,
                                     std::uint32_t vantages,
                                     bool interleave = false) {
  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);

  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  const auto targets = build_scan_targets(world, forwarders, tfs);

  scan::VantageSet set(world.sim, mini_scan_config(world, interleave),
                       test::kScannerAddr,
                       honeypot::attach_capture_vantages(
                           world.sim.net(), test::kScannerAsn, vantages));
  set.start(targets);
  set.run_to_completion();

  RunFingerprint fp;
  fp.counters = world.sim.counters();
  fp.trace_digest = world.sim.canonical_trace_digest();
  fp.transactions = render_transactions(set.correlate());
  fp.events = world.sim.events_executed();
  return fp;
}

SimConfig sharded_cfg(std::uint32_t shards, bool threads,
                      std::uint64_t seed = 2021) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.shard_threads = threads;
  return cfg;
}

TEST(ShardedDeterminism, MiniScanInvariantAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 7ull, 2021ull}) {
    const auto reference = run_mini_scan(sharded_cfg(1, false, seed), 6);
    for (const std::uint32_t shards : {2u, 4u, 8u}) {
      for (const bool threads : {false, true}) {
        const auto fp = run_mini_scan(sharded_cfg(shards, threads, seed), 6);
        EXPECT_EQ(fp, reference)
            << "shards=" << shards << " threads=" << threads
            << " seed=" << seed;
      }
    }
  }
}

TEST(ShardedDeterminism, LossyRunsInvariantAcrossShardCounts) {
  // The stateless per-packet loss hash must keep drop decisions
  // identical for every shard count (an RNG stream draw would not).
  SimConfig base = sharded_cfg(1, false, 99);
  base.loss_rate = 0.12;
  const auto reference = run_mini_scan(base, 5);
  EXPECT_GT(reference.counters.dropped_loss, 0u);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    SimConfig cfg = sharded_cfg(shards, true, 99);
    cfg.loss_rate = 0.12;
    EXPECT_EQ(run_mini_scan(cfg, 5), reference) << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, InterleavedTargetsInvariantAcrossShardCounts) {
  // shard_interleave reorders pacing by the *virtual* partition, so
  // the schedule — and every downstream table — is still identical
  // for any real shard count (including the single-threaded engine).
  const auto reference = run_mini_scan(sharded_cfg(1, false), 6, true);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    EXPECT_EQ(run_mini_scan(sharded_cfg(shards, true), 6, true), reference)
        << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, ThreadedRunsAreReproducibleEventForEvent) {
  // Stronger than the canonical digest: two threaded runs of the same
  // config must agree on the full (time, shard, seq) merged trace —
  // thread scheduling may never leak into event order.
  auto run_trace = [](bool threads) {
    MiniWorld world(sharded_cfg(4, threads));
    world.sim.set_packet_trace_enabled(true);
    scan::ScanConfig sc;
    sc.qname = world.scan_name;
    sc.timeout = Duration::seconds(2);
    scan::TransactionalScanner scanner(world.sim, world.scanner_host, sc);
    scanner.start({test::kResolverAddr, Ipv4{20, 0, 9, 200}});
    scanner.run_to_completion();
    return world.sim.merged_trace();
  };
  const std::vector<TraceRecord> first = run_trace(true);
  const std::vector<TraceRecord> second = run_trace(true);
  const std::vector<TraceRecord> sequential = run_trace(false);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The sequential scheduler is the executable spec of the windowed
  // protocol: worker threads must reproduce it exactly.
  EXPECT_EQ(first, sequential);
}

TEST(ShardedDeterminism, MailboxBackpressureSpillsWithoutDivergence) {
  const auto reference = run_mini_scan(sharded_cfg(1, false), 8);
  SimConfig tiny = sharded_cfg(4, true);
  tiny.mailbox_capacity = 2;  // force the overflow spill path
  const auto fp = run_mini_scan(tiny, 8);
  EXPECT_EQ(fp, reference);

  // Confirm the spill path actually ran and was counted.
  MiniWorld world(tiny);
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(2);
  scan::TransactionalScanner scanner(world.sim, world.scanner_host, sc);
  std::vector<Ipv4> many(32, test::kResolverAddr);
  scanner.start(many);
  scanner.run_to_completion();
  std::uint64_t overflows = 0;
  std::uint64_t admitted = 0;
  for (std::uint32_t s = 0; s < world.sim.shard_count(); ++s) {
    overflows += world.sim.shard_stats(s).mailbox_overflows;
    admitted += world.sim.shard_stats(s).mailbox_in;
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(overflows, 0u);
}

TEST(ShardedDeterminism, PerShardRouteCachesServeTheHotPath) {
  MiniWorld world(sharded_cfg(4, true));
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(2);
  scan::TransactionalScanner scanner(world.sim, world.scanner_host, sc);
  std::vector<Ipv4> targets(16, test::kResolverAddr);
  scanner.start(targets);
  scanner.run_to_completion();

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint32_t shards_with_traffic = 0;
  for (std::uint32_t s = 0; s < world.sim.shard_count(); ++s) {
    const auto& stats = world.sim.shard_route_cache_stats(s);
    hits += stats.hits;
    misses += stats.misses;
    if (world.sim.shard_counters(s).sent > 0) ++shards_with_traffic;
  }
  EXPECT_GT(hits, misses);  // repeated destinations are served warm
  EXPECT_GT(shards_with_traffic, 1u);  // the work really is spread out
}

// Golden digest of run_mini_scan(sharded_cfg(4, true), 5): counters and
// canonical trace, pinned while cached routing and the old uncached
// route computation both ran it and agreed.
constexpr std::uint64_t kFourShardScanDigest = 0xdfbd580c5ef2fc92ull;

TEST(ShardedDeterminism, CachedRoutingMatchesPinnedDigestUnderSharding) {
  const auto fp = run_mini_scan(sharded_cfg(4, true), 5);
  EXPECT_EQ(test::text_digest(test::render_counters(fp.counters) + ' ' +
                              std::to_string(fp.trace_digest)),
            kFourShardScanDigest);
}

TEST(ShardedDeterminism, AddTapOnShardedSimulatorThrows) {
  // Taps would run concurrently from every shard thread, so a sharded
  // simulator refuses them loudly — in Release builds too.
  Simulator sim(sharded_cfg(4, true));
  EXPECT_THROW(sim.add_tap([](netsim::TapEvent, const netsim::Packet&) {}),
               std::logic_error);
}

TEST(ShardedDeterminism, ClocksSynchronizeAtExplicitDeadlines) {
  MiniWorld world(sharded_cfg(4, true));
  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  scan::TransactionalScanner scanner(world.sim, world.scanner_host, sc);
  scanner.start({test::kResolverAddr});
  const auto deadline = util::SimTime::from_nanos(0) + Duration::seconds(30);
  world.sim.run_until(deadline);
  EXPECT_EQ(world.sim.now(), deadline);
}

TEST(MultiVantage, MatchesSingleVantageSingleThreadByteForByte) {
  // The tentpole acceptance bar: a multi-vantage run — 8 capture hosts
  // executing slices of one global plan, responses delivered
  // shard-locally — must reproduce the single-vantage single-threaded
  // engine byte for byte (counters, canonical trace, correlated
  // transactions, executed events) at every shard count, threaded and
  // sequential.
  const auto reference = run_mini_scan(sharded_cfg(1, false), 6);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (const bool threads : {false, true}) {
      const auto fp =
          run_mini_vantage_scan(sharded_cfg(shards, threads), 6, 8);
      EXPECT_EQ(fp, reference) << "shards=" << shards
                               << " threads=" << threads;
    }
  }
}

TEST(MultiVantage, InvariantAcrossSeedsLossAndInterleave) {
  // Loss fates hash packet content + time: because every vantage
  // spoofs the capture address and follows the global plan, even lossy
  // multi-vantage runs must match the single-vantage baseline exactly.
  for (const std::uint64_t seed : {3ull, 2021ull}) {
    for (const double loss : {0.0, 0.12}) {
      for (const bool interleave : {false, true}) {
        SimConfig base = sharded_cfg(1, false, seed);
        base.loss_rate = loss;
        const auto reference = run_mini_scan(base, 5, interleave);
        SimConfig cfg = sharded_cfg(8, true, seed);
        cfg.loss_rate = loss;
        EXPECT_EQ(run_mini_vantage_scan(cfg, 5, 8, interleave), reference)
            << "seed=" << seed << " loss=" << loss
            << " interleave=" << interleave;
      }
    }
  }
}

TEST(MultiVantage, FewerVantagesThanShardsStillExact) {
  // With members < shards, some shards capture via the mailbox fabric
  // instead of locally — results must not change.
  const auto reference = run_mini_scan(sharded_cfg(1, false), 6);
  EXPECT_EQ(run_mini_vantage_scan(sharded_cfg(8, true), 6, 3), reference);
}

TEST(MultiVantage, CaptureSpreadsAcrossShards) {
  // The structural point of the refactor: at 8 shards the response
  // stream is captured by several members (not funneled into one), and
  // the scanner host's shard does not execute the capture load alone.
  SimConfig cfg = sharded_cfg(8, true);
  MiniWorld world(cfg);
  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  auto targets = build_scan_targets(world, 6, tfs);
  // MiniWorld's one resolver answers every TF-relayed probe, which
  // would concentrate the capture on its shard; probing the DNS
  // hierarchy too makes responses originate from several shards.
  targets.push_back(test::kRootAddr);
  targets.push_back(test::kTldAddr);
  targets.push_back(test::kAuthAddr);
  scan::VantageSet set(world.sim, mini_scan_config(world, false),
                       test::kScannerAddr,
                       honeypot::attach_capture_vantages(
                           world.sim.net(), test::kScannerAsn, 8));
  set.start(targets);
  set.run_to_completion();

  std::size_t members_with_capture = 0;
  std::uint64_t total_captured = 0;
  for (std::size_t v = 0; v < set.vantage_count(); ++v) {
    if (!set.capture_of(v).empty()) ++members_with_capture;
    total_captured += set.capture_of(v).size();
  }
  EXPECT_GT(members_with_capture, 1u);
  EXPECT_EQ(set.stats().responses_received, total_captured);
}

TEST(MultiVantage, MembersPinToLightestShards) {
  // Capture members are pure sinks, so their placement is free: the
  // partition freeze must pin them to the shards the weighted LPT left
  // light — the vantage shard is never the busiest one.
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    MiniWorld world(sharded_cfg(shards, false));
    const HostId access_probe = world.add_access_host(Ipv4{20, 0, 9, 50});
    std::vector<std::uint64_t> hints(Simulator::kVirtualShards, 1);
    hints[3] = 500;  // the access AS dwarfs everything else
    world.sim.set_partition_load_hints(hints);
    const auto members = honeypot::attach_capture_vantages(
        world.sim.net(), test::kScannerAsn, 1);
    world.sim.set_vantage_capture(test::kScannerAddr, members);
    const auto busiest = world.sim.shard_of(access_probe);
    EXPECT_NE(world.sim.shard_of(members[0]), busiest) << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, WeightedPartitionKeepsResultsInvariant) {
  // The weighted virtual-shard placement is execution-only: any hint
  // vector must leave every observable output untouched.
  const auto reference = run_mini_scan(sharded_cfg(1, false), 6);
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    MiniWorld world(sharded_cfg(shards, true));
    world.sim.set_packet_trace_enabled(true);
    std::vector<std::uint64_t> hints(Simulator::kVirtualShards, 1);
    hints[3] = 500;  // access network: where almost all targets live
    world.sim.set_partition_load_hints(hints);
    std::vector<std::unique_ptr<TransparentForwarder>> tfs;
    const auto targets = build_scan_targets(world, 6, tfs);
    scan::TransactionalScanner scanner(world.sim, world.scanner_host,
                                       mini_scan_config(world, false));
    scanner.start(targets);
    scanner.run_to_completion();
    RunFingerprint fp;
    fp.counters = world.sim.counters();
    fp.trace_digest = world.sim.canonical_trace_digest();
    fp.transactions = render_transactions(scanner.correlate());
    fp.events = world.sim.events_executed();
    EXPECT_EQ(fp, reference) << "shards=" << shards;
  }
}

TEST(ShardedDeterminism, WeightedPartitionBalancesByLoadHints) {
  // LPT placement: one dominant virtual shard must be isolated on its
  // own real shard while the light ones share the rest. MiniWorld's AS
  // indices map to virtual shards 0..4 (tier1, infra, resolver,
  // access, scanner).
  MiniWorld world(sharded_cfg(2, false));
  std::vector<std::uint64_t> hints(Simulator::kVirtualShards, 0);
  hints[1] = 1000;  // the infra AS dwarfs everything else
  world.sim.set_partition_load_hints(hints);
  EXPECT_EQ(world.sim.shard_of(world.root_host), 0u);
  EXPECT_EQ(world.sim.shard_of(world.auth_host), 0u);
  EXPECT_EQ(world.sim.shard_of(world.resolver_host),
            world.sim.shard_of(world.scanner_host));
  EXPECT_EQ(world.sim.shard_of(world.resolver_host), 1u);
}

std::string census_fingerprint_text(const classify::Census& census) {
  std::ostringstream out;
  out << census.rr << '/' << census.rf << '/' << census.tf << '/'
      << census.invalid << '/' << census.unresponsive << '/'
      << census.unmapped_country << '\n';
  for (const auto& [code, report] : census.by_country) {
    out << code << ':' << report.rr << ',' << report.rf << ',' << report.tf
        << ',' << report.invalid << ',' << report.unresponsive << ','
        << report.ases_with_tf << ',' << report.other_indirect << ','
        << report.other_mapped;
    for (const auto count : report.tf_by_project) out << ',' << count;
    out << '\n';
  }
  return out.str();
}

TEST(ShardedCensus, FullPipelineMatchesSingleThreadedEngine) {
  // The acceptance bar: core::run_census over a real topo world must
  // produce an identical classify::Census for N = 1, 2, 4, 8 shards.
  auto census_for = [](std::uint32_t shards) {
    core::CensusConfig cfg;
    cfg.topology.scale = 0.004;
    cfg.topology.max_countries = 4;
    cfg.sim_shards = shards;
    cfg.shard_interleaved_targets = true;
    const auto result = core::run_census(cfg);
    return census_fingerprint_text(result.census);
  };
  const std::string reference = census_for(1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(census_for(2), reference);
  EXPECT_EQ(census_for(4), reference);
  EXPECT_EQ(census_for(8), reference);
}

TEST(ShardedCensus, DnsroutePathsOnThreadedShardsMatchOneShard) {
  // Census + DNSRoute++ on two worker threads: the capture vantage, the
  // tracer and every DnsNode decode on their own thread's arena set
  // (dnswire/arena.hpp), so the paths must equal the one-shard run's.
  auto paths_for = [](std::uint32_t shards) {
    core::CensusConfig cfg;
    cfg.topology.scale = 0.003;
    cfg.topology.max_countries = 3;
    cfg.topology.sim.shard_threads = true;
    cfg.sim_shards = shards;
    auto census = core::run_census(cfg);
    const auto routes = core::run_dnsroute(census, /*max_ttl=*/12);
    EXPECT_GT(routes.paths.size(), 100u) << "shards=" << shards;
    return test::render_paths(routes.paths);
  };
  const std::string reference = paths_for(1);
  EXPECT_EQ(paths_for(2), reference);
}

/// One full multi-vantage census fingerprint (census tables + the
/// correlated-transaction log) for the property comparison below.
std::string census_for_property(std::uint32_t shards, std::uint32_t vantages,
                                std::uint64_t seed, double loss,
                                bool interleave) {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.003;
  cfg.topology.max_countries = 3;
  cfg.topology.seed = seed;
  cfg.topology.sim.seed = seed;
  cfg.topology.sim.loss_rate = loss;
  cfg.sim_shards = shards;
  cfg.shard_interleaved_targets = interleave;
  cfg.vantages = vantages;
  const auto result = core::run_census(cfg);
  std::string fp = census_fingerprint_text(result.census);
  fp += render_transactions(result.transactions);
  return fp;
}

TEST(MultiVantageCensus, PropertyTablesEqualSingleVantageBaseline) {
  // Satellite property: across seeds × loss × interleave, the
  // multi-vantage census (8 capture hosts, 8 shards, worker threads)
  // must produce census tables — and the transaction log they are
  // built from — identical to the single-vantage single-thread
  // baseline.
  for (const std::uint64_t seed : {11ull, 42ull}) {
    for (const double loss : {0.0, 0.08}) {
      for (const bool interleave : {false, true}) {
        const std::string reference =
            census_for_property(1, 0, seed, loss, interleave);
        ASSERT_FALSE(reference.empty());
        EXPECT_EQ(census_for_property(8, 8, seed, loss, interleave),
                  reference)
            << "seed=" << seed << " loss=" << loss
            << " interleave=" << interleave;
      }
    }
  }
}

TEST(MultiVantageCensus, VantageBreakdownCoversAllTransactions) {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.004;
  cfg.topology.max_countries = 4;
  cfg.sim_shards = 4;
  cfg.vantages = 4;
  const auto result = core::run_census(cfg);
  ASSERT_NE(result.vantage_set, nullptr);
  ASSERT_EQ(result.scanner, nullptr);
  const auto rows = classify::vantage_breakdown(result.classified);
  std::uint64_t total = 0;
  std::size_t active = 0;
  for (const auto& row : rows) {
    total += row.total();
    if (row.total() > 0) ++active;
  }
  EXPECT_EQ(total, result.classified.size());
  // Four shards, four members: the capture work really is spread out.
  EXPECT_GT(active, 1u);
}

}  // namespace
}  // namespace odns

// Golden-digest suite for the batch packet plane (docs/architecture.md,
// "Batch packet plane"): delivery cohorts are extracted as runs,
// routed through the per-shard route memo, and dispatched via
// App::on_batch. Every digest below was pinned while the scalar
// per-event delivery loop still existed and produced the same bytes,
// so they keep the batch plane byte-identical to it. The properties
// pin:
//
//   * SimCounters, canonical trace digest, correlated transactions,
//     and events-executed for the MiniWorld scan workload, across
//     shard counts (1, 2, 8) × worker threads on/off × seeds × loss;
//   * the full classify::Census over a generated topology;
//   * the amplification campaign fingerprint (injections, reflections,
//     RRL verdicts) with the rate limiter on and off.
//
// Batching reorders nothing: runs preserve (time, shard, seq) order,
// and same-instant emission interleaving (which the canonical digest
// is already insensitive to, by design) is the only internal freedom.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "classify/analysis.hpp"
#include "core/census.hpp"
#include "honeypot/lab.hpp"
#include "nodes/forwarder.hpp"
#include "nodes/ratelimit.hpp"
#include "scan/amplification.hpp"
#include "scan/txscanner.hpp"
#include "testutil.hpp"

namespace odns {
namespace {

using netsim::HostId;
using netsim::SimConfig;
using netsim::SimCounters;
using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;
using util::Prefix;

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

/// The sharded suite's scan workload: a row of transparent forwarders
/// relaying to the open resolver, the resolver, and one unresponsive
/// address — so batching sees relays, ICMP, resolver fan-out, and
/// mirror responses, not just the happy path.
RunFingerprint run_mini_scan(SimConfig cfg, int forwarders) {
  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);

  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
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

  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(4);
  scan::TransactionalScanner scanner(world.sim, world.scanner_host, sc);
  scanner.start(targets);
  scanner.run_to_completion();

  RunFingerprint fp;
  fp.counters = world.sim.counters();
  fp.trace_digest = world.sim.canonical_trace_digest();
  fp.transactions = render_transactions(scanner.correlate());
  fp.events = world.sim.events_executed();
  return fp;
}

/// Golden digest of a scan fingerprint (see test::text_digest).
std::uint64_t fingerprint_digest(const RunFingerprint& fp) {
  std::ostringstream out;
  out << test::render_counters(fp.counters) << '\n'
      << fp.trace_digest << ' ' << fp.events << '\n'
      << fp.transactions;
  return test::text_digest(out.str());
}

SimConfig make_cfg(std::uint32_t shards, bool threads, std::uint64_t seed,
                   double loss) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.shards = shards;
  cfg.shard_threads = threads;
  cfg.loss_rate = loss;
  return cfg;
}

// Golden digests of run_mini_scan(…, 6) per (seed, loss), pinned while
// the scalar and the batched delivery planes both ran the workload and
// agreed on it.
struct ScanGolden {
  std::uint64_t seed;
  double loss;
  std::uint64_t digest;
};
constexpr ScanGolden kScanGolden[] = {
    {1, 0.0, 0x400115fcaa91b785ull},
    {1, 0.08, 0xbfdb3a52ca8d42eaull},
    {2021, 0.0, 0x400115fcaa91b785ull},
    {2021, 0.08, 0x72de7bdab7d1fe35ull},
};

TEST(BatchPlane, ScanMatchesPinnedDigestAcrossShardsThreadsSeedsAndLoss) {
  for (const auto& [seed, loss, golden] : kScanGolden) {
    for (const std::uint32_t shards : {1u, 2u, 8u}) {
      for (const bool threads : {false, true}) {
        if (shards == 1 && threads) continue;
        const RunFingerprint fp =
            run_mini_scan(make_cfg(shards, threads, seed, loss), 6);
        ASSERT_FALSE(fp.transactions.empty());
        EXPECT_EQ(fingerprint_digest(fp), golden)
            << "shards=" << shards << " threads=" << threads
            << " seed=" << seed << " loss=" << loss;
      }
    }
  }
}

/// Two scan waves against the same world. Returns both waves'
/// transactions plus the end-of-run counters and trace digest. (The
/// waves legitimately differ from each other — wave two is served from
/// the resolver cache — so the property pins whole runs, not wave one
/// against wave two.)
std::string run_two_waves() {
  SimConfig cfg = make_cfg(1, false, 2021, 0.0);
  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);

  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  const Ipv4 addr{20, 0, 9, 1};
  const HostId host = world.add_access_host(addr);
  tfs.push_back(std::make_unique<TransparentForwarder>(world.sim, host,
                                                       test::kResolverAddr));
  tfs.back()->install();

  scan::ScanConfig sc;
  sc.qname = world.scan_name;
  sc.timeout = Duration::seconds(4);

  std::ostringstream out;
  scan::TransactionalScanner first(world.sim, world.scanner_host, sc);
  first.start({addr});
  first.run_to_completion();
  out << render_transactions(first.correlate());

  scan::TransactionalScanner second(world.sim, world.scanner_host, sc);
  second.start({addr});
  second.run_to_completion();
  out << render_transactions(second.correlate());

  const SimCounters& c = world.sim.counters();
  out << c.sent << ' ' << c.delivered << ' ' << c.icmp_generated << '\n';
  out << world.sim.canonical_trace_digest() << ' '
      << world.sim.events_executed() << '\n';
  return out.str();
}

// Golden digest of run_two_waves, pinned while a run that switched to
// scalar delivery for wave two and an always-batched run agreed on it.
constexpr std::uint64_t kTwoWavesDigest = 0x9c9544e4e6e1371aull;

TEST(BatchPlane, TwoWavesMatchPinnedDigest) {
  EXPECT_EQ(test::text_digest(run_two_waves()), kTwoWavesDigest);
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

std::string census_text(std::uint32_t shards, double loss) {
  core::CensusConfig cfg;
  cfg.topology.scale = 0.003;
  cfg.topology.max_countries = 3;
  cfg.topology.sim.loss_rate = loss;
  cfg.sim_shards = shards;
  cfg.shard_interleaved_targets = true;
  const auto result = core::run_census(cfg);
  std::string fp = census_fingerprint_text(result.census);
  fp += render_transactions(result.transactions);
  return fp;
}

// Golden digests of census_text per loss rate, pinned from the scalar
// 1-shard run and the batched 1- and 8-shard runs, which agreed.
constexpr std::pair<double, std::uint64_t> kCensusGolden[] = {
    {0.0, 0xc21cdc2464b78496ull},
    {0.05, 0x4db0ecc154bcb08aull},
};

TEST(BatchPlane, CensusPipelineMatchesPinnedDigest) {
  for (const auto& [loss, golden] : kCensusGolden) {
    for (const std::uint32_t shards : {1u, 8u}) {
      const std::string text = census_text(shards, loss);
      ASSERT_FALSE(text.empty());
      EXPECT_EQ(test::text_digest(text), golden)
          << "loss=" << loss << " shards=" << shards;
    }
  }
}

std::vector<std::string> txt_filler(std::size_t bytes) {
  static constexpr char kPattern[] = "batch-plane-test-filler/";
  std::vector<std::string> strings;
  std::string chunk;
  for (std::size_t i = 0; i < bytes; ++i) {
    chunk.push_back(kPattern[i % (sizeof(kPattern) - 1)]);
    if (chunk.size() == 255) {
      strings.push_back(std::move(chunk));
      chunk.clear();
    }
  }
  if (!chunk.empty()) strings.push_back(std::move(chunk));
  return strings;
}

/// Amplification campaign fingerprint: injection/reflection logs plus
/// RRL verdicts — the outputs most sensitive to delivery-order bugs,
/// since same-instant response bursts are exactly what batching packs.
std::string run_amp_fingerprint(SimConfig cfg, bool rrl_on) {
  MiniWorld world(cfg);
  world.sim.set_packet_trace_enabled(true);

  std::vector<std::unique_ptr<TransparentForwarder>> tfs;
  std::vector<Ipv4> reflectors;
  for (int i = 0; i < 6; ++i) {
    const Ipv4 addr{20, 0, 9, static_cast<std::uint8_t>(1 + i)};
    const HostId host = world.add_access_host(addr);
    tfs.push_back(std::make_unique<TransparentForwarder>(
        world.sim, host, test::kResolverAddr));
    tfs.back()->install();
    reflectors.push_back(addr);
  }

  const auto amp_name = *world.scan_name.prepend("amp");
  nodes::Zone* zone = world.auth->zone_for_mutable(amp_name);
  zone->add_record(dnswire::ResourceRecord::txt(amp_name, txt_filler(600),
                                                zone->default_ttl));
  if (rrl_on) {
    world.resolver->set_rrl({/*rate=*/2, /*burst=*/2, /*slip=*/2});
  }

  scan::AmplificationConfig ac;
  ac.qname = amp_name;
  ac.probes_per_second = rrl_on ? 40 : 20000;
  scan::AmplificationCampaign campaign(world.sim, ac);
  for (int i = 0; i < 2; ++i) {
    const Ipv4 base{198, 18, static_cast<std::uint8_t>(240 + i), 0};
    const HostId host = honeypot::attach_vantage(
        world.sim.net(), Prefix{base, 24}, Ipv4{base.value() + 7},
        /*sav=*/false);
    campaign.add_attacker(host);
  }
  for (int i = 0; i < 2; ++i) {
    const Ipv4 base{198, 18, static_cast<std::uint8_t>(200 + i), 0};
    const Ipv4 addr{base.value() + 7};
    const HostId host = honeypot::attach_vantage(world.sim.net(),
                                                 Prefix{base, 24}, addr,
                                                 /*sav=*/true);
    campaign.add_victim(host, addr);
  }
  campaign.start(reflectors);
  campaign.run_to_completion();

  std::ostringstream out;
  for (const auto& i : campaign.injections()) {
    out << i.at.nanos() << ' ' << i.victim.to_string() << ' '
        << i.reflector.to_string() << ' ' << i.attacker_as << ' '
        << i.src_port << ' ' << i.txid << ' ' << i.bytes << '\n';
  }
  for (const auto& r : campaign.merged_reflections()) {
    out << r.at.nanos() << ' ' << r.victim.to_string() << ' '
        << r.src.to_string() << ' ' << r.src_port << ' ' << r.dst_port << ' '
        << r.bytes << ' ' << r.truncated << '\n';
  }
  if (const auto* rrl = world.resolver->rrl()) {
    out << rrl->stats().passed << ' ' << rrl->stats().slipped << ' '
        << rrl->stats().dropped << '\n';
  }
  const SimCounters& c = world.sim.counters();
  out << c.sent << ' ' << c.delivered << ' ' << c.dropped_sav << ' '
      << c.dropped_loss << ' ' << c.dropped_no_route << ' ' << c.ttl_expired
      << ' ' << c.icmp_generated << ' ' << c.redirected << '\n';
  out << world.sim.canonical_trace_digest() << ' '
      << world.sim.events_executed() << '\n';
  return out.str();
}

// Golden digests of run_amp_fingerprint with RRL off/on, pinned from
// the scalar run and the batched 1- and 8-shard runs, which agreed.
constexpr std::pair<bool, std::uint64_t> kAmpGolden[] = {
    {false, 0x2438540aa69b77f4ull},
    {true, 0xe14057e66ffe3845ull},
};

TEST(BatchPlane, AmplificationCampaignMatchesPinnedDigest) {
  for (const auto& [rrl_on, golden] : kAmpGolden) {
    const std::string one_shard =
        run_amp_fingerprint(make_cfg(1, false, 2021, 0.0), rrl_on);
    ASSERT_FALSE(one_shard.empty());
    EXPECT_EQ(test::text_digest(one_shard), golden) << "rrl=" << rrl_on;
    EXPECT_EQ(test::text_digest(
                  run_amp_fingerprint(make_cfg(8, true, 2021, 0.0), rrl_on)),
              golden)
        << "rrl=" << rrl_on;
  }
}

}  // namespace
}  // namespace odns

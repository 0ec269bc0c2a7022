#include <gtest/gtest.h>

#include <stdexcept>

#include "honeypot/lab.hpp"
#include "nodes/forwarder.hpp"
#include "scan/campaigns.hpp"
#include "scan/txscanner.hpp"
#include "scan/vantage.hpp"
#include "testutil.hpp"

namespace odns::scan {
namespace {

using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;

class ScanFixture : public ::testing::Test {
 protected:
  MiniWorld world;

  ScanConfig scan_config() {
    ScanConfig cfg;
    cfg.qname = world.scan_name;
    return cfg;
  }
};

TEST_F(ScanFixture, ResolverTargetClassifiableTransaction) {
  TransactionalScanner scanner(world.sim, world.scanner_host, scan_config());
  scanner.start({test::kResolverAddr});
  scanner.run_to_completion();
  const auto txns = scanner.correlate();
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_TRUE(txns[0].answered);
  EXPECT_EQ(txns[0].target, test::kResolverAddr);
  EXPECT_EQ(txns[0].response_src, test::kResolverAddr);
  ASSERT_TRUE(txns[0].dynamic_a().has_value());
  EXPECT_EQ(*txns[0].dynamic_a(), test::kResolverAddr);
  EXPECT_EQ(*txns[0].control_a(), test::kControlAddr);
  EXPECT_GT(txns[0].rtt.count_nanos(), 0);
}

TEST_F(ScanFixture, UnresponsiveTargetStaysUnanswered) {
  // An address with a host but no DNS service (ICMP unreachable comes
  // back instead).
  world.add_access_host(Ipv4{20, 0, 0, 50});
  ScanConfig cfg = scan_config();
  cfg.timeout = Duration::seconds(2);
  TransactionalScanner scanner(world.sim, world.scanner_host, cfg);
  scanner.start({Ipv4{20, 0, 0, 50}});
  scanner.run_to_completion();
  const auto txns = scanner.correlate();
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_FALSE(txns[0].answered);
  EXPECT_EQ(scanner.stats().icmp_errors, 1u);
}

TEST_F(ScanFixture, Fig7TwoForwardersOneResolverDisambiguated) {
  // The appendix-Fig.-7 scenario: two transparent forwarders relay to
  // the same resolver. Both responses arrive from the same source IP;
  // only the (port, TXID) tuple attributes them to the right probes.
  const auto tf1 = world.add_access_host(Ipv4{20, 0, 5, 1});
  const auto tf2 = world.add_access_host(Ipv4{20, 0, 5, 2});
  TransparentForwarder f1(world.sim, tf1, test::kResolverAddr);
  TransparentForwarder f2(world.sim, tf2, test::kResolverAddr);
  f1.install();
  f2.install();

  TransactionalScanner scanner(world.sim, world.scanner_host, scan_config());
  scanner.start({Ipv4{20, 0, 5, 1}, Ipv4{20, 0, 5, 2}});
  scanner.run_to_completion();
  const auto txns = scanner.correlate();
  ASSERT_EQ(txns.size(), 2u);
  for (const auto& txn : txns) {
    EXPECT_TRUE(txn.answered);
    EXPECT_EQ(txn.response_src, test::kResolverAddr);
    EXPECT_NE(txn.target, txn.response_src);
  }
  // Distinct tuples were used.
  ASSERT_EQ(scanner.probes().size(), 2u);
  EXPECT_NE(scanner.probes()[0].src_port, scanner.probes()[1].src_port);
  EXPECT_EQ(scanner.stats().responses_unmatched, 0u);
}

TEST_F(ScanFixture, TupleUniquenessAcrossPortWrap) {
  ScanConfig cfg = scan_config();
  cfg.port_base = 65530;  // tiny port space: forces wraps
  cfg.port_limit = 65535;
  TransactionalScanner scanner(world.sim, world.scanner_host, cfg);
  std::vector<Ipv4> targets(20, test::kResolverAddr);
  // 20 probes over 6 ports: tuples must still be unique.
  scanner.start(targets);
  scanner.run_to_completion();
  std::set<std::uint32_t> tuples;
  for (const auto& p : scanner.probes()) {
    tuples.insert((std::uint32_t{p.src_port} << 16) | p.txid);
  }
  EXPECT_EQ(tuples.size(), scanner.probes().size());
}

// A scan keeps one pacing timer per sender, so the event pool is sized
// by in-flight work — probes and answers on the wire, resolver
// timers — not by the plan. 20,000 targets with one retry each is a
// 40,000-send plan; pacing timers armed up front would need a pool
// slot per send (40,401 slots, measured with them). Lazy pacing needs
// about 400 here — roughly the probes and answers of one round trip at
// 20k probes/s — so the bound leaves 5x headroom.
constexpr std::size_t kFootprintTargets = 20000;
constexpr std::size_t kFootprintSlotBound = 2000;

ScanConfig footprint_config(const MiniWorld& world) {
  ScanConfig cfg;
  cfg.qname = world.scan_name;
  cfg.max_retries = 1;
  return cfg;
}

TEST_F(ScanFixture, PacingFootprintBoundedByInFlightWork) {
  TransactionalScanner scanner(world.sim, world.scanner_host,
                               footprint_config(world));
  scanner.start(std::vector<Ipv4>(kFootprintTargets, test::kResolverAddr));
  scanner.run_to_completion();
  EXPECT_EQ(scanner.stats().probes_sent, kFootprintTargets);
  EXPECT_EQ(scanner.stats().probes_retried, kFootprintTargets);
  EXPECT_EQ(scanner.stats().responses_received, 2 * kFootprintTargets);
  EXPECT_LT(world.sim.event_pool_slots(), kFootprintSlotBound)
      << "pool slots " << world.sim.event_pool_slots();
}

TEST(ScanPacing, VantageSetFootprintBoundedByInFlightWork) {
  netsim::SimConfig sim_cfg;
  sim_cfg.shards = 2;
  sim_cfg.shard_threads = false;
  MiniWorld world(sim_cfg);
  VantageSet set(world.sim, footprint_config(world), test::kScannerAddr,
                 honeypot::attach_capture_vantages(world.sim.net(),
                                                   test::kScannerAsn, 2));
  set.start(std::vector<Ipv4>(kFootprintTargets, test::kResolverAddr));
  set.run_to_completion();
  EXPECT_EQ(set.stats().probes_sent, kFootprintTargets);
  EXPECT_EQ(set.stats().probes_retried, kFootprintTargets);
  EXPECT_EQ(set.stats().responses_received, 2 * kFootprintTargets);
  EXPECT_LT(world.sim.event_pool_slots(), kFootprintSlotBound)
      << "pool slots " << world.sim.event_pool_slots();
}

TEST_F(ScanFixture, StartWhilePacingThrows) {
  TransactionalScanner scanner(world.sim, world.scanner_host, scan_config());
  scanner.start({test::kResolverAddr, test::kRootAddr});
  // The first plan's sends are still pending: a second plan would
  // replace the one they index into.
  EXPECT_THROW(scanner.start({test::kResolverAddr}), std::logic_error);
  scanner.run_to_completion();
  EXPECT_NO_THROW(scanner.start({test::kResolverAddr}));
  scanner.run_to_completion();
  EXPECT_EQ(scanner.stats().probes_sent, 3u);
}

/// Two runs over one resolver, each answered in its own run: the
/// second plan must not reuse the first plan's (port, TXID) tuples, or
/// the join pairs the first run's response with the second run's probe.
void expect_two_runs_answered_separately(
    const std::vector<SentProbe>& probes, const std::vector<Transaction>& txns,
    const ScannerStats& stats) {
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_FALSE(probes[0].src_port == probes[1].src_port &&
               probes[0].txid == probes[1].txid);
  ASSERT_EQ(txns.size(), 2u);
  for (const auto& txn : txns) {
    EXPECT_TRUE(txn.answered);
    EXPECT_EQ(txn.response_src, test::kResolverAddr);
    EXPECT_GT(txn.rtt.count_nanos(), 0);
    EXPECT_LT(txn.rtt, Duration::seconds(1));
  }
  EXPECT_EQ(stats.responses_duplicate, 0u);
}

TEST_F(ScanFixture, SecondStartContinuesTheTupleSequence) {
  TransactionalScanner scanner(world.sim, world.scanner_host, scan_config());
  scanner.start({test::kResolverAddr});
  scanner.run_to_completion();
  scanner.start({test::kResolverAddr});
  scanner.run_to_completion();
  const auto txns = scanner.correlate();
  expect_two_runs_answered_separately(scanner.probes(), txns,
                                      scanner.stats());
}

TEST(ScanPacing, VantageSetSecondStartContinuesTheTupleSequence) {
  MiniWorld world;
  ScanConfig cfg;
  cfg.qname = world.scan_name;
  VantageSet set(world.sim, cfg, test::kScannerAddr,
                 honeypot::attach_capture_vantages(world.sim.net(),
                                                   test::kScannerAsn, 1));
  set.start({test::kResolverAddr});
  set.run_to_completion();
  set.start({test::kResolverAddr});
  set.run_to_completion();
  const auto txns = set.correlate();
  expect_two_runs_answered_separately(set.probes(), txns, set.stats());
}

TEST(ScanPacing, VantageSetStartWhilePacingThrows) {
  MiniWorld world;
  ScanConfig cfg;
  cfg.qname = world.scan_name;
  VantageSet set(world.sim, cfg, test::kScannerAddr,
                 honeypot::attach_capture_vantages(world.sim.net(),
                                                   test::kScannerAsn, 1));
  set.start({test::kResolverAddr, test::kRootAddr});
  EXPECT_THROW(set.start({test::kResolverAddr}), std::logic_error);
  set.run_to_completion();
  EXPECT_NO_THROW(set.start({test::kResolverAddr}));
  set.run_to_completion();
  EXPECT_EQ(set.stats().probes_sent, 3u);
}

TEST_F(ScanFixture, ZeroProbeRatePlanThrows) {
  ScanConfig cfg = scan_config();
  cfg.probes_per_second = 0;
  EXPECT_THROW((void)VantagePlan::build(world.sim, cfg, {test::kResolverAddr}),
               std::invalid_argument);
}

TEST_F(ScanFixture, ZeroProbeRateCampaignThrows) {
  CampaignConfig cc;
  cc.qname = world.scan_name;
  cc.probes_per_second = 0;
  EXPECT_THROW(StatelessCampaign(world.sim, world.scanner_host, cc),
               std::invalid_argument);
}

TEST_F(ScanFixture, LateResponsesCountedNotMatched) {
  ScanConfig cfg = scan_config();
  cfg.timeout = Duration::nanos(1);  // everything is late
  TransactionalScanner scanner(world.sim, world.scanner_host, cfg);
  scanner.start({test::kResolverAddr});
  world.sim.run();
  const auto txns = scanner.correlate();
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_FALSE(txns[0].answered);
  EXPECT_EQ(scanner.stats().responses_late, 1u);
}

TEST_F(ScanFixture, ProbeWireBytesEqualAFreshEncodePerProbe) {
  // The sender encodes a static-qname query once and patches each
  // probe's TXID into it. Every probe must still carry exactly the
  // bytes a fresh encode with its TXID gives. A two-port range over
  // 600 targets takes the TXID past 255, so both ID bytes vary.
  ScanConfig cfg = scan_config();
  cfg.port_limit = static_cast<std::uint16_t>(cfg.port_base + 1);
  std::vector<Ipv4> targets;
  for (std::uint32_t i = 0; i < 600; ++i) {
    targets.push_back(Ipv4{Ipv4{20, 0, 1, 0}.value() + i});
  }
  std::vector<netsim::Packet> sent;
  world.sim.add_tap([&](netsim::TapEvent ev, const netsim::Packet& pkt) {
    if (ev == netsim::TapEvent::sent && pkt.src == test::kScannerAddr &&
        pkt.dst_port == 53) {
      sent.push_back(pkt);
    }
  });
  TransactionalScanner scanner(world.sim, world.scanner_host, cfg);
  scanner.start(targets);
  scanner.run_to_completion();
  const auto& probes = scanner.probes();
  ASSERT_EQ(sent.size(), probes.size());
  EXPECT_GT(probes.back().txid, 255);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(sent[i].src_port, probes[i].src_port);
    EXPECT_EQ(sent[i].payload,
              dnswire::encode(dnswire::make_query(probes[i].txid, cfg.qname,
                                                  cfg.qtype)))
        << "probe " << i;
  }
}

TEST_F(ScanFixture, QueryEncodingModeUsesPerTargetNames) {
  world.auth->set_wildcard_a(Ipv4{198, 51, 100, 10});
  world.auth->enable_query_log();
  ScanConfig cfg = scan_config();
  cfg.qname_for_target = [&](Ipv4 target) {
    std::string label = target.to_string();
    for (auto& ch : label) {
      if (ch == '.') ch = '-';
    }
    return *dnswire::Name::parse(label + ".q.odns-study.net");
  };
  TransactionalScanner scanner(world.sim, world.scanner_host, cfg);
  scanner.start({test::kResolverAddr});
  scanner.run_to_completion();
  ASSERT_EQ(world.auth->query_log().size(), 1u);
  // The resolver 0x20-randomizes the case of its upstream query, so
  // compare canonically.
  EXPECT_EQ(world.auth->query_log()[0].qname.canonical(),
            "8-8-8-8.q.odns-study.net");
}

// ---------------------------------------------------------------------
// Stateless campaigns — the §3 behaviours
// ---------------------------------------------------------------------

class CampaignFixture : public ScanFixture {
 protected:
  // One plain resolver target and one transparent forwarder.
  void SetUp() override {
    tf_addr = Ipv4{20, 0, 6, 1};
    const auto tf_host = world.add_access_host(tf_addr);
    tf = std::make_unique<TransparentForwarder>(world.sim, tf_host,
                                                test::kResolverAddr);
    tf->install();
  }

  std::unique_ptr<StatelessCampaign> run_campaign(CampaignKind kind) {
    CampaignConfig cfg;
    cfg.kind = kind;
    cfg.qname = world.scan_name;
    // Each campaign scans from its own vantage host.
    const auto base = Ipv4{192, 0, 2, 0}.value();
    const auto addr = Ipv4{base + 100 + static_cast<std::uint32_t>(kind)};
    const auto host = world.sim.net().add_host(test::kScannerAsn, {addr});
    auto campaign =
        std::make_unique<StatelessCampaign>(world.sim, host, cfg);
    campaign->run({test::kResolverAddr, tf_addr});
    return campaign;
  }

  Ipv4 tf_addr;
  std::unique_ptr<TransparentForwarder> tf;
};

TEST_F(CampaignFixture, ShadowserverRecordsResponseSources) {
  const auto campaign = run_campaign(CampaignKind::shadowserver);
  // Both answers came from the resolver: one speaker discovered, the
  // transparent forwarder invisible.
  EXPECT_TRUE(campaign->has_discovered(test::kResolverAddr));
  EXPECT_FALSE(campaign->has_discovered(tf_addr));
  EXPECT_EQ(campaign->discovered().size(), 1u);
  EXPECT_EQ(campaign->responses_seen(), 2u);
}

TEST_F(CampaignFixture, CensysSanitizesOffTargetResponses) {
  const auto campaign = run_campaign(CampaignKind::censys);
  EXPECT_TRUE(campaign->has_discovered(test::kResolverAddr));
  EXPECT_FALSE(campaign->has_discovered(tf_addr));
  // The TF-relayed response was dropped by sanitization (its source,
  // the resolver, *was* probed here — so instead it merges: check the
  // drop counter only when source was never probed).
  EXPECT_EQ(campaign->discovered().size(), 1u);
}

TEST_F(CampaignFixture, ShodanDropsResponsesFromUnprobedSources) {
  // Scan only the transparent forwarder: the answer comes from the
  // resolver, which was never probed → sanitized away entirely.
  CampaignConfig cfg;
  cfg.kind = CampaignKind::shodan;
  cfg.qname = world.scan_name;
  const auto host =
      world.sim.net().add_host(test::kScannerAsn, {Ipv4{192, 0, 2, 200}});
  StatelessCampaign campaign(world.sim, host, cfg);
  campaign.run({tf_addr});
  EXPECT_TRUE(campaign.discovered().empty());
  EXPECT_EQ(campaign.responses_dropped_sanitize(), 1u);
}

}  // namespace
}  // namespace odns::scan

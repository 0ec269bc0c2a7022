#include <gtest/gtest.h>

#include <sstream>
#include <unordered_map>

#include "core/census.hpp"
#include "core/report.hpp"
#include "testutil.hpp"
#include "util/stats.hpp"

namespace odns::core {
namespace {

using classify::Klass;
using topo::OdnsKind;
using util::Ipv4;

Klass expected_klass(OdnsKind kind) {
  switch (kind) {
    case OdnsKind::recursive_resolver: return Klass::recursive_resolver;
    case OdnsKind::recursive_forwarder: return Klass::recursive_forwarder;
    case OdnsKind::transparent_forwarder: return Klass::transparent_forwarder;
  }
  return Klass::unresponsive;
}

CensusConfig full_census_config(std::uint32_t shards = 0) {
  CensusConfig cfg;
  cfg.topology.scale = 0.005;
  cfg.topology.seed = 1234;
  cfg.sim_shards = shards;
  return cfg;
}

/// One full census at small scale, shared by all integration tests
/// (building + scanning once keeps the suite fast).
class FullCensus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    result_ = new CensusResult(run_census(full_census_config()));
  }
  static void TearDownTestSuite() {
    delete result_;
    result_ = nullptr;
  }
  static CensusResult* result_;
};

CensusResult* FullCensus::result_ = nullptr;

TEST_F(FullCensus, EveryProbeGetsExactlyOneTransaction) {
  EXPECT_EQ(result_->transactions.size(),
            result_->world->ground_truth().size());
  EXPECT_EQ(result_->scanner->stats().responses_unmatched, 0u);
}

TEST_F(FullCensus, ClassificationMatchesGroundTruth) {
  std::unordered_map<Ipv4, Klass> classified;
  for (const auto& item : result_->classified) {
    classified[item.txn.target] = item.klass;
  }
  std::uint64_t correct = 0;
  std::uint64_t manipulated = 0;
  std::uint64_t total = 0;
  for (const auto& gt : result_->world->ground_truth()) {
    ++total;
    const auto it = classified.find(gt.addr);
    ASSERT_NE(it, classified.end()) << gt.addr.to_string();
    if (gt.kind == OdnsKind::recursive_forwarder && gt.chained) {
      // Manipulating forwarders must be rejected by strict validation.
      EXPECT_EQ(it->second, Klass::invalid) << gt.addr.to_string();
      ++manipulated;
      continue;
    }
    EXPECT_EQ(it->second, expected_klass(gt.kind)) << gt.addr.to_string();
    ++correct;
  }
  EXPECT_EQ(correct + manipulated, total);
  EXPECT_GT(manipulated, 0u);  // the CHN/KOR Shadowserver gap exists
}

TEST_F(FullCensus, CompositionSharesTrackThePaper) {
  const auto& census = result_->census;
  const double total = static_cast<double>(census.odns_total());
  EXPECT_GT(total, 8000);
  // Paper Table 1: 2% / 72% / 26%. Scale rounding widens tolerances.
  EXPECT_NEAR(static_cast<double>(census.tf) / total, 0.26, 0.05);
  EXPECT_NEAR(static_cast<double>(census.rf) / total, 0.72, 0.06);
  EXPECT_LT(static_cast<double>(census.rr) / total, 0.05);
}

TEST_F(FullCensus, TransparentForwarderProjectsMatchGroundTruth) {
  // Every TF's response source project agrees with the deployment's
  // intent (direct big-4 relays).
  std::unordered_map<Ipv4, const topo::GroundTruth*> gt_by_addr;
  for (const auto& gt : result_->world->ground_truth()) {
    gt_by_addr[gt.addr] = &gt;
  }
  std::uint64_t checked = 0;
  for (const auto& item : result_->classified) {
    if (item.klass != Klass::transparent_forwarder) continue;
    const auto* gt = gt_by_addr.at(item.txn.target);
    if (gt->chained || gt->project == topo::ResolverProject::other) continue;
    const auto project =
        classify::project_of_service_addr(item.txn.response_src);
    ASSERT_TRUE(project.has_value());
    EXPECT_EQ(*project, gt->project);
    ++checked;
  }
  EXPECT_GT(checked, 500u);
}

TEST_F(FullCensus, IndirectConsolidationDetected) {
  // Chained TFs answer from their own AS but the mirror record exposes
  // the big-4 resolver behind the chain.
  std::uint64_t indirect_total = 0;
  for (const auto& [code, report] : result_->census.by_country) {
    indirect_total += report.other_indirect;
  }
  EXPECT_GT(indirect_total, 0u);
}

TEST_F(FullCensus, RelaxedValidationGrowsRecursiveCountsOnly) {
  const auto relaxed = reanalyze(*result_, /*strict_validation=*/false);
  // §4.2: dropping the control-record requirement adds the manipulated
  // recursive speakers but cannot add transparent forwarders (their
  // responses are valid).
  EXPECT_GT(relaxed.rf + relaxed.rr, result_->census.rf + result_->census.rr);
  EXPECT_EQ(relaxed.tf, result_->census.tf);
  EXPECT_EQ(relaxed.invalid, 0u);
}

TEST_F(FullCensus, CountryAttributionMatchesGroundTruth) {
  // Spot-check: every classified TF lands in its ground-truth country
  // (when the registry mapped it at all).
  std::unordered_map<Ipv4, std::string> expected;
  for (const auto& gt : result_->world->ground_truth()) {
    expected[gt.addr] = gt.country;
  }
  for (const auto& item : result_->classified) {
    if (item.klass != Klass::transparent_forwarder) continue;
    if (auto country = result_->registry.country_of(item.txn.target)) {
      EXPECT_EQ(*country, expected.at(item.txn.target));
    }
  }
}

TEST_F(FullCensus, ShadowserverViewMissesTransparentForwarders) {
  auto campaign = run_campaign(
      *result_->world, scan::CampaignKind::shadowserver,
      util::Prefix{Ipv4{198, 18, 10, 0}, 24}, result_->world->scan_targets());
  // The campaign discovers recursive speakers and resolvers-behind-TFs,
  // but none of the transparent forwarder addresses themselves.
  std::unordered_map<Ipv4, OdnsKind> kind_by_addr;
  for (const auto& gt : result_->world->ground_truth()) {
    kind_by_addr[gt.addr] = gt.kind;
  }
  std::uint64_t tf_found = 0;
  for (const auto& addr : campaign->discovered()) {
    auto it = kind_by_addr.find(addr);
    if (it != kind_by_addr.end() &&
        it->second == OdnsKind::transparent_forwarder) {
      ++tf_found;
    }
  }
  EXPECT_EQ(tf_found, 0u);
  // And it undercounts the ODNS total substantially (paper: ~18-26%).
  EXPECT_LT(campaign->discovered().size(),
            result_->census.odns_total() * 90 / 100);
}

TEST_F(FullCensus, DnsrouteProducesSanePathsAtScale) {
  auto routes = run_dnsroute(*result_, /*max_ttl=*/25);
  ASSERT_GT(routes.samples.size(), 100u);
  std::map<topo::ResolverProject, util::Accumulator> mean_hops;
  for (const auto& s : routes.samples) {
    EXPECT_GT(s.hops, 0);
    EXPECT_LT(s.hops, 25);
    mean_hops[s.project].add(static_cast<double>(s.hops));
  }
  // Fig. 6 ordering: Cloudflare < Google < OpenDNS.
  ASSERT_TRUE(mean_hops.contains(topo::ResolverProject::cloudflare));
  ASSERT_TRUE(mean_hops.contains(topo::ResolverProject::google));
  ASSERT_TRUE(mean_hops.contains(topo::ResolverProject::opendns));
  const double cf = mean_hops[topo::ResolverProject::cloudflare].mean();
  const double google = mean_hops[topo::ResolverProject::google].mean();
  const double odns = mean_hops[topo::ResolverProject::opendns].mean();
  EXPECT_LT(cf, google);
  EXPECT_LT(google, odns);

  // §5: most usable paths show AS_in == AS_out, and some inferred
  // provider-customer edges are unknown to the CAIDA-like registry.
  EXPECT_GT(routes.relationships.as_in_equals_as_out, 0u);
  EXPECT_GT(routes.relationships.unknown_to_caida, 0u);
}

// DNSRoute++ over every TF of a fresh census at 1, 2 and 4 shards:
// 2,994 targets x 25 TTLs = 74,850 probes, past the 64,512-port wrap,
// so answers and ICMP quotes on reused ports are matched too. The
// digest was recorded while the tracer still kept per-probe match maps.
TEST_F(FullCensus, DnsroutePathsMatchPinnedDigestAcrossShards) {
  constexpr std::uint64_t kGolden = 0x80ee26804e0e4075ull;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    CensusResult census = run_census(full_census_config(shards));
    const auto routes = run_dnsroute(census, /*max_ttl=*/25);
    EXPECT_EQ(routes.paths.size(), 2994u) << "shards=" << shards;
    EXPECT_EQ(test::text_digest(test::render_paths(routes.paths)), kGolden)
        << "shards=" << shards;
  }
}

TEST_F(FullCensus, ReportsRenderNonEmpty) {
  EXPECT_GT(report::table1_composition(result_->census).rows(), 3u);
  EXPECT_GT(report::table4_other_share(result_->census).rows(), 5u);
  EXPECT_GT(report::fig3_country_cdf(result_->census).rows(), 10u);
  EXPECT_GT(report::fig4_top_countries(result_->census, 50).rows(), 10u);
  EXPECT_GT(report::fig5_project_shares(result_->census, 50).rows(), 10u);
  EXPECT_GT(report::fig8_prefix_density(result_->census).rows(), 3u);
  const auto devices = classify::device_attribution(
      result_->census, result_->classified, result_->registry);
  EXPECT_GT(report::devices_table(devices).rows(), 4u);
  const auto ases =
      classify::classify_ases(result_->census, result_->registry, 100);
  EXPECT_GT(report::as_classification_table(ases).rows(), 4u);
}

TEST_F(FullCensus, DeviceAttributionFindsMikrotikShare) {
  const auto devices = classify::device_attribution(
      result_->census, result_->classified, result_->registry);
  EXPECT_GT(devices.fingerprinted, 0u);
  // §6: ~23% of fingerprinted TFs are MikroTik.
  EXPECT_NEAR(devices.mikrotik_share_of_fingerprinted(), 0.23, 0.10);
}

TEST_F(FullCensus, TopAsesAreMostlyEyeballs) {
  const auto ases =
      classify::classify_ases(result_->census, result_->registry, 100);
  // §6: 79 of the top-100 are eyeball ISPs; 14 unclassified.
  EXPECT_GT(ases.eyeball_total, 50);
  EXPECT_GT(ases.unclassified, 0);
  EXPECT_GT(ases.wide_asns, 30);  // 32-bit ASNs common among them
  EXPECT_GT(ases.tf_coverage, 0.3);
}

}  // namespace
}  // namespace odns::core

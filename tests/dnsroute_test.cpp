#include <gtest/gtest.h>

#include <stdexcept>

#include "dnsroute/dnsroute.hpp"
#include "nodes/forwarder.hpp"
#include "testutil.hpp"

namespace odns::dnsroute {
namespace {

using nodes::TransparentForwarder;
using test::MiniWorld;
using util::Ipv4;
using util::Prefix;

class DnsrouteFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tf_addr = Ipv4{20, 0, 8, 1};
    const auto tf_host = world.add_access_host(tf_addr);
    tf = std::make_unique<TransparentForwarder>(world.sim, tf_host,
                                                test::kResolverAddr);
    tf->install();
  }

  DnsrouteConfig config(int max_ttl = 20) {
    DnsrouteConfig cfg;
    cfg.qname = world.scan_name;
    cfg.max_ttl = max_ttl;
    return cfg;
  }

  registry::RegistrySnapshot registry_view() {
    registry::RegistrySnapshot snap;
    const auto& net = world.sim.net();
    for (const auto& [prefix, asn] : net.announced_prefixes()) {
      snap.routeviews.add(prefix, asn);
    }
    for (const auto asn : net.all_asns()) {
      for (const auto ip : net.find_as(asn)->router_ips) {
        snap.routeviews.add(Prefix{ip, 32}, asn);
      }
    }
    snap.project_asns[test::kResolverAsn] = topo::ResolverProject::google;
    return snap;
  }

  MiniWorld world;
  Ipv4 tf_addr;
  std::unique_ptr<TransparentForwarder> tf;
};

TEST_F(DnsrouteFixture, SeesThroughTheForwarder) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  ASSERT_EQ(paths.size(), 1u);
  const auto& path = paths[0];

  // scanner AS (1 hop) + tier1 (2) + access (1) = 4 routers, then the
  // device itself → target_distance 5.
  EXPECT_EQ(path.target_distance, 5);
  EXPECT_TRUE(path.got_answer);
  EXPECT_EQ(path.resolver, test::kResolverAddr);
  // Behind the device: access(1)+tier1(2)+resolver AS(1) = 4 routers,
  // resolver answers at TTL 5+4+1 = 10; hops = 10-5 = 5 (4 routers +
  // resolver itself).
  EXPECT_EQ(path.answer_ttl, 10);
  EXPECT_EQ(path.forwarder_to_resolver_hops(), 5);
  EXPECT_TRUE(path.complete());
}

TEST_F(DnsrouteFixture, RepeatedRunsMatchTheFirst) {
  // Probe numbers keep counting across runs, so the second run's
  // probes leave on fresh ports; matching must stay within the run.
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto first = tracer.run({tf_addr, test::kResolverAddr});
  const auto second = tracer.run({tf_addr});
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].target_distance, first[0].target_distance);
  EXPECT_EQ(second[0].answer_ttl, first[0].answer_ttl);
  EXPECT_EQ(second[0].resolver, first[0].resolver);
  EXPECT_EQ(second[0].hop_addrs(), first[0].hop_addrs());
  EXPECT_TRUE(second[0].complete());
}

TEST_F(DnsrouteFixture, ZeroProbeRateThrows) {
  DnsrouteConfig cfg = config();
  cfg.probes_per_second = 0;
  EXPECT_THROW(DnsroutePlusPlus(world.sim, world.scanner_host, cfg),
               std::invalid_argument);
}

TEST_F(DnsrouteFixture, MaxTtlOutsideOneTo255Throws) {
  EXPECT_THROW(DnsroutePlusPlus(world.sim, world.scanner_host, config(0)),
               std::invalid_argument);
  EXPECT_THROW(DnsroutePlusPlus(world.sim, world.scanner_host, config(256)),
               std::invalid_argument);
  EXPECT_NO_THROW(DnsroutePlusPlus(world.sim, world.scanner_host, config(255)));
}

TEST_F(DnsrouteFixture, HopsBeforeTargetBelongToTransitAses) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  const auto& path = paths[0];
  const auto& net = world.sim.net();
  // Hops 1..4 are router addresses; hop 5 is the device.
  for (int t = 1; t < path.target_distance; ++t) {
    const auto& hop = path.hops[static_cast<std::size_t>(t - 1)];
    ASSERT_TRUE(hop.responded) << "ttl " << t;
    EXPECT_TRUE(net.router_owner(hop.addr).has_value());
  }
  EXPECT_EQ(path.hops[4].addr, tf_addr);
}

TEST_F(DnsrouteFixture, OrdinaryResolverYieldsNoBeyondHops) {
  // Against a recursive resolver (not transparent), the DNS answer
  // arrives as soon as the TTL reaches the host; nothing lies beyond.
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({test::kResolverAddr});
  const auto& path = paths[0];
  EXPECT_TRUE(path.got_answer);
  // scanner(1)+tier1(2)+resolver(1)=4 routers → answer at TTL 5.
  EXPECT_EQ(path.answer_ttl, 5);
  // The resolver host never emits TTL-exceeded for delivered probes;
  // target_distance stays unset → not a transparent-forwarder path.
  EXPECT_EQ(path.target_distance, -1);
  EXPECT_FALSE(path.complete());
}

TEST_F(DnsrouteFixture, PathLengthSamplesAttributeProjects) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  const auto samples = path_length_samples(paths, registry_view());
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].project, topo::ResolverProject::google);
  EXPECT_EQ(samples[0].hops, 5);
  EXPECT_EQ(samples[0].forwarder_asn, test::kAccessAsn);
}

TEST_F(DnsrouteFixture, LossMakesPathsIncompleteAndSanitized) {
  netsim::SimConfig cfg;
  cfg.loss_rate = 0.35;
  cfg.seed = 11;
  MiniWorld lossy(cfg);
  const auto tf_host = lossy.add_access_host(Ipv4{20, 0, 8, 1});
  TransparentForwarder lossy_tf(lossy.sim, tf_host, test::kResolverAddr);
  lossy_tf.install();

  DnsrouteConfig rc;
  rc.qname = lossy.scan_name;
  rc.max_ttl = 20;
  DnsroutePlusPlus tracer(lossy.sim, lossy.scanner_host, rc);
  std::vector<Ipv4> targets(40, Ipv4{20, 0, 8, 1});
  // Re-probing the same target 40 times: each run may lose probes.
  // (Targets deduplicate per index; paths are independent records.)
  const auto paths = tracer.run(targets);
  int complete = 0;
  for (const auto& p : paths) {
    if (p.complete()) ++complete;
  }
  // With 35% loss most paths have gaps; sanitization must reject them.
  EXPECT_LT(complete, 40);
}

TEST_F(DnsrouteFixture, InfersProviderCustomerRelationships) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  auto snap = registry_view();
  const auto report = infer_relationships(paths, snap);
  EXPECT_EQ(report.paths_considered, 1u);
  EXPECT_EQ(report.paths_with_as_mapping, 1u);
  // Before the forwarder: tier-1 routers; after: the access AS's own
  // routers then tier-1 again → AS_in == AS_out == tier-1.
  EXPECT_EQ(report.as_in_equals_as_out, 1u);
  EXPECT_EQ(report.inferred_provider_customer, 1u);
  // Our registry_view has no CAIDA edges at all → discovery.
  EXPECT_EQ(report.unknown_to_caida, 1u);
}

TEST_F(DnsrouteFixture, KnownCaidaEdgesNotCountedAsDiscoveries) {
  DnsroutePlusPlus tracer(world.sim, world.scanner_host, config());
  const auto paths = tracer.run({tf_addr});
  auto snap = registry_view();
  snap.caida.add(test::kTier1Asn, test::kAccessAsn);
  const auto report = infer_relationships(paths, snap);
  EXPECT_EQ(report.inferred_provider_customer, 1u);
  EXPECT_EQ(report.unknown_to_caida, 0u);
}

}  // namespace
}  // namespace odns::dnsroute

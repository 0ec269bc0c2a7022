#include <gtest/gtest.h>

#include <stdexcept>

#include "nodes/cache.hpp"
#include "nodes/ratelimit.hpp"
#include "testutil.hpp"

namespace odns::nodes {
namespace {

using dnswire::Name;
using dnswire::Rcode;
using dnswire::ResourceRecord;
using dnswire::RrType;
using test::MiniWorld;
using util::Duration;
using util::Ipv4;
using util::SimTime;

// ---------------------------------------------------------------------
// DnsCache
// ---------------------------------------------------------------------

TEST(DnsCacheTest, HitAfterPut) {
  DnsCache cache;
  const auto name = *Name::parse("a.example");
  cache.put(name, RrType::a,
            {ResourceRecord::a(name, Ipv4{1, 2, 3, 4}, 300)},
            SimTime::origin());
  const auto hit = cache.get(name, RrType::a, SimTime::origin());
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->records.size(), 1u);
  EXPECT_EQ(hit->remaining_ttl, 300u);
}

TEST(DnsCacheTest, TtlDecaysWithClock) {
  DnsCache cache;
  const auto name = *Name::parse("a.example");
  cache.put(name, RrType::a,
            {ResourceRecord::a(name, Ipv4{1, 2, 3, 4}, 300)},
            SimTime::origin());
  const auto later = SimTime::origin() + Duration::seconds(250);
  const auto hit = cache.get(name, RrType::a, later);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->remaining_ttl, 50u);  // the Fig. 7 decayed-TTL effect
  EXPECT_EQ(hit->records[0].ttl, 50u);
}

TEST(DnsCacheTest, ExpiredEntryIsMiss) {
  DnsCache cache;
  const auto name = *Name::parse("a.example");
  cache.put(name, RrType::a,
            {ResourceRecord::a(name, Ipv4{1, 2, 3, 4}, 10)},
            SimTime::origin());
  EXPECT_FALSE(cache.get(name, RrType::a,
                         SimTime::origin() + Duration::seconds(11))
                   .has_value());
  EXPECT_EQ(cache.size(), 0u);  // lazily evicted
}

TEST(DnsCacheTest, NegativeEntries) {
  DnsCache cache;
  const auto name = *Name::parse("missing.example");
  cache.put_negative(name, RrType::a, Rcode::nxdomain, 60, SimTime::origin());
  const auto hit = cache.get(name, RrType::a, SimTime::origin());
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative);
  EXPECT_EQ(hit->rcode, Rcode::nxdomain);
  EXPECT_EQ(cache.stats().negative_hits, 1u);
}

TEST(DnsCacheTest, TypesAreSeparateKeys) {
  DnsCache cache;
  const auto name = *Name::parse("a.example");
  cache.put(name, RrType::a,
            {ResourceRecord::a(name, Ipv4{1, 2, 3, 4}, 300)},
            SimTime::origin());
  EXPECT_FALSE(cache.get(name, RrType::ns, SimTime::origin()).has_value());
}

TEST(DnsCacheTest, KeyIsCaseInsensitive) {
  DnsCache cache;
  cache.put(*Name::parse("A.Example"), RrType::a,
            {ResourceRecord::a(*Name::parse("A.Example"), Ipv4{1, 2, 3, 4},
                               300)},
            SimTime::origin());
  EXPECT_TRUE(
      cache.get(*Name::parse("a.example"), RrType::a, SimTime::origin())
          .has_value());
}

TEST(DnsCacheTest, LabelHoldingADotIsAnotherName) {
  // ["a.b","c"] and ["a","b","c"] print alike but are different names.
  DnsCache cache;
  const auto split = *Name::from_labels({"a", "b", "c"});
  const auto dotted = *Name::from_labels({"a.b", "c"});
  cache.put(split, RrType::a, {ResourceRecord::a(split, Ipv4{1, 2, 3, 4}, 300)},
            SimTime::origin());
  EXPECT_FALSE(cache.get(dotted, RrType::a, SimTime::origin()).has_value());
  EXPECT_TRUE(cache.get(split, RrType::a, SimTime::origin()).has_value());
}

TEST(DnsCacheTest, CapacityEviction) {
  DnsCache cache(86400, /*max_entries=*/4);
  for (int i = 0; i < 8; ++i) {
    const auto name = *Name::parse("n" + std::to_string(i) + ".example");
    cache.put(name, RrType::a, {ResourceRecord::a(name, Ipv4{1, 1, 1, 1}, 60)},
              SimTime::origin());
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 4u);
}

TEST(DnsCacheTest, MinTtlAcrossRecordSet) {
  DnsCache cache;
  const auto name = *Name::parse("two.example");
  cache.put(name, RrType::a,
            {ResourceRecord::a(name, Ipv4{1, 1, 1, 1}, 500),
             ResourceRecord::a(name, Ipv4{2, 2, 2, 2}, 100)},
            SimTime::origin());
  const auto hit =
      cache.get(name, RrType::a, SimTime::origin() + Duration::seconds(99));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->remaining_ttl, 1u);
}

// ---------------------------------------------------------------------
// PrefixRateLimiter
// ---------------------------------------------------------------------

TEST(RateLimiterTest, OneGrantPerWindowPerPrefix) {
  PrefixRateLimiter limiter{Duration::minutes(5)};
  const auto t0 = SimTime::origin();
  EXPECT_TRUE(limiter.allow(Ipv4{192, 0, 2, 1}, t0));
  // Same /24, different host: still limited (carpet-bomb protection).
  EXPECT_FALSE(limiter.allow(Ipv4{192, 0, 2, 99}, t0 + Duration::seconds(1)));
  // Different /24: independent budget.
  EXPECT_TRUE(limiter.allow(Ipv4{192, 0, 3, 1}, t0 + Duration::seconds(1)));
  // Window elapses: granted again.
  EXPECT_TRUE(limiter.allow(Ipv4{192, 0, 2, 7}, t0 + Duration::minutes(5)));
  EXPECT_EQ(limiter.granted(), 3u);
  EXPECT_EQ(limiter.denied(), 1u);
}

TEST(RateLimiterTest, DenialDoesNotResetWindow) {
  PrefixRateLimiter limiter{Duration::minutes(5)};
  const auto t0 = SimTime::origin();
  EXPECT_TRUE(limiter.allow(Ipv4{10, 0, 0, 1}, t0));
  EXPECT_FALSE(limiter.allow(Ipv4{10, 0, 0, 1}, t0 + Duration::minutes(4)));
  // 5 minutes after the *grant*, not after the denial.
  EXPECT_TRUE(limiter.allow(Ipv4{10, 0, 0, 1}, t0 + Duration::minutes(5)));
}

// ---------------------------------------------------------------------
// AuthServer via MiniWorld
// ---------------------------------------------------------------------

class AuthFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    client_host = world.add_access_host(Ipv4{20, 0, 0, 1});
    stub = std::make_unique<StubClient>(world.sim, client_host);
    stub->start();
  }

  dnswire::Message query_and_wait(Ipv4 server, const std::string& name,
                                  RrType type = RrType::a) {
    stub->clear();
    stub->query(server, *Name::parse(name), type);
    world.sim.run();
    EXPECT_EQ(stub->responses().size(), 1u)
        << "no (or multiple) responses for " << name;
    if (stub->responses().empty()) return {};
    return stub->responses().front().message;
  }

  MiniWorld world;
  netsim::HostId client_host{};
  std::unique_ptr<StubClient> stub;
};

TEST_F(AuthFixture, MirrorAnswersDynamicPlusControl) {
  const auto resp =
      query_and_wait(test::kAuthAddr, "scan.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 2u);
  const auto addrs = resp.answer_addresses();
  // Dynamic record mirrors the immediate client — the stub itself here.
  EXPECT_EQ(addrs[0], (Ipv4{20, 0, 0, 1}));
  EXPECT_EQ(addrs[1], test::kControlAddr);
  EXPECT_TRUE(resp.header.aa);
}

TEST_F(AuthFixture, ReferralForDelegatedZone) {
  const auto resp = query_and_wait(test::kRootAddr, "scan.odns-study.net");
  EXPECT_TRUE(resp.answers.empty());
  ASSERT_FALSE(resp.authorities.empty());
  EXPECT_EQ(resp.authorities[0].type, RrType::ns);
  ASSERT_FALSE(resp.additionals.empty());  // glue
  EXPECT_FALSE(resp.header.aa);
}

TEST_F(AuthFixture, NxdomainWithSoa) {
  const auto resp = query_and_wait(test::kAuthAddr, "nope.odns-study.net");
  EXPECT_EQ(resp.header.rcode, Rcode::nxdomain);
  ASSERT_EQ(resp.authorities.size(), 1u);
  EXPECT_EQ(resp.authorities[0].type, RrType::soa);
}

TEST_F(AuthFixture, RefusedOutsideZones) {
  const auto resp = query_and_wait(test::kAuthAddr, "example.com");
  EXPECT_EQ(resp.header.rcode, Rcode::refused);
}

TEST_F(AuthFixture, StaticRecordsServed) {
  const auto resp = query_and_wait(test::kAuthAddr, "ns1.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(resp.answer_addresses()[0], test::kAuthAddr);
}

TEST_F(AuthFixture, WildcardSynthesizesWhenEnabled) {
  world.auth->set_wildcard_a(Ipv4{198, 51, 100, 10});
  const auto resp =
      query_and_wait(test::kAuthAddr, "20-0-0-9.q.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 1u);
  EXPECT_EQ(resp.answer_addresses()[0], (Ipv4{198, 51, 100, 10}));
}

TEST_F(AuthFixture, AnyQueryOnMirrorName) {
  const auto resp =
      query_and_wait(test::kAuthAddr, "scan.odns-study.net", RrType::any);
  EXPECT_EQ(resp.answers.size(), 2u);
}

TEST_F(AuthFixture, RateLimiterSilentlyDrops) {
  world.auth->enable_rate_limit(Duration::minutes(5));
  stub->query(test::kAuthAddr, world.scan_name);
  world.sim.run();
  EXPECT_EQ(stub->responses().size(), 1u);
  stub->query(test::kAuthAddr, world.scan_name);
  world.sim.run();
  EXPECT_EQ(stub->responses().size(), 1u);  // second answer suppressed
  EXPECT_EQ(world.auth->counters().rate_limited, 1u);
}

TEST_F(AuthFixture, QueryLogRecordsClient) {
  world.auth->enable_query_log();
  query_and_wait(test::kAuthAddr, "scan.odns-study.net");
  ASSERT_EQ(world.auth->query_log().size(), 1u);
  EXPECT_EQ(world.auth->query_log()[0].client, (Ipv4{20, 0, 0, 1}));
}

TEST_F(AuthFixture, LabelHoldingADotIsAnotherName) {
  // ["x.y","odns-study","net"] prints like ["x","y","odns-study","net"]
  // but is another name: the split name's record must not answer it.
  const auto split = *Name::from_labels({"x", "y", "odns-study", "net"});
  const auto dotted = *Name::from_labels({"x.y", "odns-study", "net"});
  world.auth->zone_for_mutable(split)->add_record(
      ResourceRecord::a(split, Ipv4{198, 51, 100, 7}, 300));
  stub->query(test::kAuthAddr, dotted);
  world.sim.run();
  ASSERT_EQ(stub->responses().size(), 1u);
  EXPECT_EQ(stub->responses().front().message.header.rcode, Rcode::nxdomain);
  EXPECT_TRUE(stub->responses().front().message.answers.empty());

  stub->clear();
  stub->query(test::kAuthAddr, split);
  world.sim.run();
  ASSERT_EQ(stub->responses().size(), 1u);
  const auto addrs = stub->responses().front().message.answer_addresses();
  ASSERT_EQ(addrs.size(), 1u);
  EXPECT_EQ(addrs[0], (Ipv4{198, 51, 100, 7}));
}

// ---------------------------------------------------------------------
// Per-thread arena set
// ---------------------------------------------------------------------

/// Runs another node's packet handler inside its own, which the
/// per-thread arena set forbids.
class NestingNode : public DnsNode {
 public:
  NestingNode(netsim::Simulator& sim, netsim::HostId host, DnsNode& inner)
      : DnsNode(sim, host), inner_(&inner) {}

 protected:
  bool on_message_view(const netsim::Datagram& dgram,
                       const dnswire::MessageView&) override {
    inner_->on_datagram(dgram);
    return true;
  }

 private:
  DnsNode* inner_;
};

TEST(ArenaLeaseTest, NestedPacketHandlerThrows) {
  MiniWorld world;
  const auto wire = dnswire::encode(
      dnswire::make_query(7, world.scan_name, RrType::a));
  netsim::Datagram dgram;
  dgram.src = test::kScannerAddr;
  dgram.dst = test::kAuthAddr;
  dgram.src_port = 40000;
  dgram.dst_port = kDnsPort;
  dgram.payload = &wire;
  NestingNode outer(world.sim, world.scanner_host, *world.auth);
  EXPECT_THROW(outer.on_datagram(dgram), std::logic_error);
  // The throw released the outer lease: the next handler runs.
  EXPECT_NO_THROW(world.auth->on_datagram(dgram));
  EXPECT_EQ(world.auth->queries_answered(), 1u);
}

// ---------------------------------------------------------------------
// RecursiveResolver
// ---------------------------------------------------------------------

TEST_F(AuthFixture, ResolverPerformsFullIteration) {
  const auto resp = query_and_wait(test::kResolverAddr, "scan.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 2u);
  const auto addrs = resp.answer_addresses();
  // The auth server saw the resolver, not the stub.
  EXPECT_EQ(addrs[0], test::kResolverAddr);
  EXPECT_EQ(addrs[1], test::kControlAddr);
  EXPECT_TRUE(resp.header.ra);
  EXPECT_EQ(world.resolver->stats().full_resolutions, 1u);
  // Root → TLD → auth = 3 upstream queries.
  EXPECT_EQ(world.resolver->stats().upstream_queries, 3u);
}

TEST_F(AuthFixture, ResolverCachesAndDecaysTtl) {
  const auto first = query_and_wait(test::kResolverAddr, "scan.odns-study.net");
  ASSERT_EQ(first.answers.size(), 2u);
  EXPECT_EQ(first.answers[0].ttl, 300u);

  // 250 simulated seconds later the cached answer has ~50s left (the
  // tolerance absorbs resolver housekeeping events that advance the
  // clock a few seconds past the insert).
  world.sim.run_until(world.sim.now() + Duration::seconds(250));
  const auto second =
      query_and_wait(test::kResolverAddr, "scan.odns-study.net");
  ASSERT_EQ(second.answers.size(), 2u);
  EXPECT_NEAR(static_cast<double>(second.answers[0].ttl), 50.0, 5.0);
  EXPECT_EQ(world.resolver->stats().answered_from_cache, 1u);
  // No extra load on the authoritative server.
  EXPECT_EQ(world.auth->queries_answered(), 1u);
}

TEST_F(AuthFixture, ResolverNegativeCachesNxdomain) {
  const auto first = query_and_wait(test::kResolverAddr, "no.odns-study.net");
  EXPECT_EQ(first.header.rcode, Rcode::nxdomain);
  const auto auth_queries = world.auth->queries_answered();
  const auto second = query_and_wait(test::kResolverAddr, "no.odns-study.net");
  EXPECT_EQ(second.header.rcode, Rcode::nxdomain);
  EXPECT_EQ(world.auth->queries_answered(), auth_queries);  // served from cache
}

TEST_F(AuthFixture, RestrictedResolverRefusesOutsiders) {
  nodes::ResolverConfig rc;
  rc.open = false;
  rc.allowed = {util::Prefix{Ipv4{99, 0, 0, 0}, 8}};  // not the stub
  rc.root_hints = {test::kRootAddr};
  const auto host = world.sim.net().add_host(test::kResolverAsn,
                                             {Ipv4{8, 8, 8, 100}});
  RecursiveResolver restricted(world.sim, host, rc, 3);
  restricted.start();
  const auto resp = query_and_wait(Ipv4{8, 8, 8, 100}, "scan.odns-study.net");
  EXPECT_EQ(resp.header.rcode, Rcode::refused);
  EXPECT_EQ(restricted.stats().refused_acl, 1u);
}

TEST_F(AuthFixture, ResolverCoalescesConcurrentClients) {
  const auto host2 = world.add_access_host(Ipv4{20, 0, 1, 1});
  StubClient stub2(world.sim, host2);
  stub2.start();
  stub->query(test::kResolverAddr, world.scan_name);
  stub2.query(test::kResolverAddr, world.scan_name);
  world.sim.run();
  EXPECT_EQ(stub->responses().size(), 1u);
  EXPECT_EQ(stub2.responses().size(), 1u);
  // Coalesced: one full resolution for two clients.
  EXPECT_EQ(world.resolver->stats().full_resolutions, 1u);
  EXPECT_EQ(world.auth->queries_answered(), 1u);
}

TEST_F(AuthFixture, ResolverServfailsOnDeadServers) {
  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {Ipv4{198, 41, 0, 99}};  // nothing listens there
  rc.upstream_timeout = Duration::seconds(1);
  rc.max_retries = 1;
  const auto host = world.sim.net().add_host(test::kResolverAsn,
                                             {Ipv4{8, 8, 8, 101}});
  RecursiveResolver broken(world.sim, host, rc, 3);
  broken.start();
  const auto resp = query_and_wait(Ipv4{8, 8, 8, 101}, "scan.odns-study.net");
  EXPECT_EQ(resp.header.rcode, Rcode::servfail);
  EXPECT_GE(broken.stats().upstream_timeouts, 2u);  // initial + retry
}

TEST_F(AuthFixture, ResolverChasesCnames) {
  // A dedicated zone with a CNAME chain, served by its own auth host
  // which the test resolver uses as its root.
  const auto chain_host =
      world.sim.net().add_host(test::kInfraAsn, {Ipv4{198, 51, 100, 60}});
  AuthServer chain_auth(world.sim, chain_host);
  auto& chain_zone = chain_auth.add_zone(*Name::parse("chain.test"));
  chain_zone.add_record(ResourceRecord::cname(
      *Name::parse("www.chain.test"), *Name::parse("real.chain.test"), 300));
  chain_zone.add_a("real.chain.test", Ipv4{20, 7, 7, 7}, 300);
  chain_auth.start();

  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {Ipv4{198, 51, 100, 60}};  // treat chain auth as root
  const auto rhost = world.sim.net().add_host(test::kResolverAsn,
                                              {Ipv4{8, 8, 8, 102}});
  RecursiveResolver resolver(world.sim, rhost, rc, 3);
  resolver.start();
  const auto resp = query_and_wait(Ipv4{8, 8, 8, 102}, "www.chain.test");
  ASSERT_EQ(resp.answers.size(), 2u);  // CNAME + A
  EXPECT_EQ(resp.answers[0].type, RrType::cname);
  EXPECT_EQ(resp.answers[1].type, RrType::a);
  EXPECT_EQ(std::get<dnswire::ARecord>(resp.answers[1].rdata).addr,
            (Ipv4{20, 7, 7, 7}));
}

// ---------------------------------------------------------------------
// Forwarders
// ---------------------------------------------------------------------

TEST_F(AuthFixture, RecursiveForwarderRewritesSource) {
  const auto fwd_host = world.add_access_host(Ipv4{20, 0, 2, 1});
  ForwarderConfig fc;
  fc.upstream = test::kResolverAddr;
  RecursiveForwarder fwd(world.sim, fwd_host, fc);
  fwd.start();

  const auto resp = query_and_wait(Ipv4{20, 0, 2, 1}, "scan.odns-study.net");
  ASSERT_EQ(resp.answers.size(), 2u);
  // Response came *from the forwarder*, and the dynamic record shows
  // the resolver — the recursive-forwarder signature.
  EXPECT_EQ(stub->responses().front().from, (Ipv4{20, 0, 2, 1}));
  EXPECT_EQ(resp.answer_addresses()[0], test::kResolverAddr);
  EXPECT_EQ(fwd.stats().forwarded, 1u);
}

TEST_F(AuthFixture, RecursiveForwarderServesFromCache) {
  const auto fwd_host = world.add_access_host(Ipv4{20, 0, 2, 1});
  ForwarderConfig fc;
  fc.upstream = test::kResolverAddr;
  RecursiveForwarder fwd(world.sim, fwd_host, fc);
  fwd.start();
  query_and_wait(Ipv4{20, 0, 2, 1}, "scan.odns-study.net");
  query_and_wait(Ipv4{20, 0, 2, 1}, "scan.odns-study.net");
  EXPECT_EQ(fwd.stats().cache_answers, 1u);
  EXPECT_EQ(fwd.stats().forwarded, 1u);
}

TEST_F(AuthFixture, ManipulatingForwarderRewritesARecords) {
  const auto fwd_host = world.add_access_host(Ipv4{20, 0, 2, 2});
  ForwarderConfig fc;
  fc.upstream = test::kResolverAddr;
  fc.rewrite_answers = true;
  fc.rewrite_target = Ipv4{203, 0, 113, 99};
  RecursiveForwarder fwd(world.sim, fwd_host, fc);
  fwd.start();
  const auto resp = query_and_wait(Ipv4{20, 0, 2, 2}, "scan.odns-study.net");
  for (const auto addr : resp.answer_addresses()) {
    EXPECT_EQ(addr, (Ipv4{203, 0, 113, 99}));
  }
}

TEST_F(AuthFixture, StrippingForwarderDropsControlRecord) {
  const auto fwd_host = world.add_access_host(Ipv4{20, 0, 2, 3});
  ForwarderConfig fc;
  fc.upstream = test::kResolverAddr;
  fc.strip_second_record = true;
  RecursiveForwarder fwd(world.sim, fwd_host, fc);
  fwd.start();
  const auto resp = query_and_wait(Ipv4{20, 0, 2, 3}, "scan.odns-study.net");
  EXPECT_EQ(resp.answers.size(), 1u);
}

TEST_F(AuthFixture, TransparentForwarderNeverSeesResponse) {
  const auto tf_host = world.add_access_host(Ipv4{20, 0, 3, 1});
  TransparentForwarder tf(world.sim, tf_host, test::kResolverAddr);
  tf.install();

  stub->query(Ipv4{20, 0, 3, 1}, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub->responses().size(), 1u);
  const auto& resp = stub->responses().front();
  // Answer arrives directly from the resolver — not from the probed
  // address. This is the transparent-forwarder observable.
  EXPECT_EQ(resp.from, test::kResolverAddr);
  EXPECT_EQ(resp.message.answer_addresses()[0], test::kResolverAddr);
  EXPECT_EQ(tf.relayed(), 1u);
}

TEST_F(AuthFixture, TransparentForwarderToRestrictedResolverRefused) {
  // TF relaying to a restricted resolver: the spoofed client source is
  // outside the ACL, so the scanner receives REFUSED — such devices are
  // not viable ODNS components (§2).
  nodes::ResolverConfig rc;
  rc.open = false;
  rc.allowed = {util::Prefix{Ipv4{20, 0, 3, 0}, 24}};  // only the TF's /24
  rc.root_hints = {test::kRootAddr};
  const auto rhost = world.sim.net().add_host(test::kResolverAsn,
                                              {Ipv4{8, 8, 8, 103}});
  RecursiveResolver restricted(world.sim, rhost, rc, 3);
  restricted.start();

  const auto tf_host = world.add_access_host(Ipv4{20, 0, 3, 2});
  TransparentForwarder tf(world.sim, tf_host, Ipv4{8, 8, 8, 103});
  tf.install();

  stub->query(Ipv4{20, 0, 3, 2}, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub->responses().size(), 1u);
  EXPECT_EQ(stub->responses().front().message.header.rcode, Rcode::refused);
}

}  // namespace
}  // namespace odns::nodes

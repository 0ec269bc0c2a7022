// Property sweep over randomly generated AS topologies: routing,
// TTL accounting, SAV and ICMP invariants must hold for every graph.
// The route-equivalence half checks the early-exit route BFS and the
// destination-rooted distance fields against a test-local full-BFS
// parent-tree oracle on tie-heavy graphs and on a built world, and
// pins an all-pairs path digest that per-thread caches must reproduce.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "netsim/sim.hpp"
#include "topo/deployment.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace odns::netsim {
namespace {

using util::Ipv4;
using util::Prefix;
using util::Rng;

struct RandomWorld {
  Simulator sim;
  std::vector<Asn> asns;
  std::vector<HostId> hosts;  // one per AS
};

/// Random connected topology: a tree plus extra chords.
std::unique_ptr<RandomWorld> make_world(std::uint64_t seed, int n_ases) {
  // Heap-allocated: Simulator is pinned in memory (its shards hold
  // back-pointers), so RandomWorld is not movable.
  auto wp = std::make_unique<RandomWorld>();
  RandomWorld& w = *wp;
  Rng rng{seed};
  auto& net = w.sim.net();
  for (int i = 0; i < n_ases; ++i) {
    AsConfig cfg;
    cfg.asn = static_cast<Asn>(100 + i);
    cfg.internal_hops = rng.uniform_int(1, 4);
    cfg.source_address_validation = rng.chance(0.5);
    net.add_as(cfg);
    w.asns.push_back(cfg.asn);
    if (i > 0) {
      net.link(cfg.asn, w.asns[static_cast<std::size_t>(
                            rng.uniform_int(0, i - 1))]);
    }
  }
  for (int extra = 0; extra < n_ases / 3; ++extra) {
    net.link(rng.pick(w.asns), rng.pick(w.asns));
  }
  for (int i = 0; i < n_ases; ++i) {
    const Ipv4 addr{static_cast<std::uint32_t>((20u << 24) + (i << 8) + 1)};
    net.announce(w.asns[static_cast<std::size_t>(i)], Prefix{addr, 24});
    w.hosts.push_back(
        net.add_host(w.asns[static_cast<std::size_t>(i)], {addr}));
  }
  return wp;
}

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, HopCountEqualsSumOfInternalHops) {
  auto wp = make_world(GetParam(), 24);
  auto& w = *wp;
  const auto& net = w.sim.net();
  Rng rng{GetParam() ^ 1};
  for (int trial = 0; trial < 60; ++trial) {
    const auto from = rng.pick(w.hosts);
    const auto to = rng.pick(w.hosts);
    const auto dst = net.primary_addr(to);
    const auto route = net.route(from, dst);
    ASSERT_TRUE(route.has_value());
    std::size_t expected = 0;
    for (const auto asn : route->as_path) {
      expected += static_cast<std::size_t>(
          net.find_as(asn)->cfg.internal_hops);
    }
    EXPECT_EQ(route->router_hops.size(), expected);
    // AS path endpoints match source and destination ASes.
    EXPECT_EQ(route->as_path.front(), net.host(from).asn);
    EXPECT_EQ(route->as_path.back(), net.host(to).asn);
    // AS-path length consistent with BFS distance.
    EXPECT_EQ(static_cast<int>(route->as_path.size()) - 1,
              net.as_distance(net.host(from).asn, net.host(to).asn));
  }
}

TEST_P(RoutingProperty, EveryRouterHopBelongsToAnAsOnThePath) {
  auto wp = make_world(GetParam(), 16);
  auto& w = *wp;
  const auto& net = w.sim.net();
  Rng rng{GetParam() ^ 2};
  for (int trial = 0; trial < 40; ++trial) {
    const auto from = rng.pick(w.hosts);
    const auto to = rng.pick(w.hosts);
    const auto route = net.route(from, net.primary_addr(to));
    ASSERT_TRUE(route.has_value());
    for (const auto hop : route->router_hops) {
      const auto owner = net.router_owner(hop);
      ASSERT_TRUE(owner.has_value());
      EXPECT_NE(std::find(route->as_path.begin(), route->as_path.end(),
                          *owner),
                route->as_path.end());
    }
  }
}

class CountingSink : public App {
 public:
  void on_datagram(const Datagram& d) override {
    ++count;
    last_ttl = d.ttl;
  }
  int count = 0;
  int last_ttl = -1;
};

TEST_P(RoutingProperty, ExactTtlDeliveryBoundary) {
  // A packet with TTL exactly equal to the router-hop count expires at
  // the last router; TTL = hops + 1 is delivered with 1 remaining.
  auto wp = make_world(GetParam(), 12);
  auto& w = *wp;
  auto& net = w.sim.net();
  Rng rng{GetParam() ^ 3};
  const auto from = w.hosts[0];
  const auto to = w.hosts[w.hosts.size() - 1];
  const auto dst = net.primary_addr(to);
  const auto route = net.route(from, dst);
  ASSERT_TRUE(route.has_value());
  const int hops = static_cast<int>(route->router_hops.size());
  if (hops == 0) GTEST_SKIP() << "same-AS corner";

  CountingSink sink;
  w.sim.bind_udp(to, 53, &sink);
  int icmp_count = 0;
  w.sim.set_icmp_handler(from, [&](const Packet&) { ++icmp_count; });

  SendOptions at_boundary;
  at_boundary.dst = dst;
  at_boundary.dst_port = 53;
  at_boundary.ttl = hops;
  w.sim.send_udp(from, std::move(at_boundary));
  SendOptions above_boundary;
  above_boundary.dst = dst;
  above_boundary.dst_port = 53;
  above_boundary.ttl = hops + 1;
  w.sim.send_udp(from, std::move(above_boundary));
  w.sim.run();

  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(sink.last_ttl, 1);
  EXPECT_EQ(icmp_count, 1);
  (void)rng;
}

TEST_P(RoutingProperty, TracerouteReconstructsTheRoute) {
  // Probing with increasing TTLs yields exactly the route's router
  // list, in order — the invariant DNSRoute++ builds on.
  auto wp = make_world(GetParam(), 10);
  auto& w = *wp;
  auto& net = w.sim.net();
  const auto from = w.hosts[1];
  const auto to = w.hosts[w.hosts.size() - 2];
  const auto dst = net.primary_addr(to);
  const auto route = net.route(from, dst);
  ASSERT_TRUE(route.has_value());

  std::vector<Ipv4> seen;
  w.sim.set_icmp_handler(from, [&](const Packet& p) {
    if (p.icmp_type == IcmpType::ttl_exceeded) seen.push_back(p.src);
  });
  for (int ttl = 1; ttl <= static_cast<int>(route->router_hops.size());
       ++ttl) {
    SendOptions probe;
    probe.dst = dst;
    probe.dst_port = 33434;
    probe.ttl = ttl;
    w.sim.send_udp(from, std::move(probe));
    w.sim.run();
  }
  EXPECT_EQ(seen, route->router_hops);
}

TEST_P(RoutingProperty, SpoofingOnlyEscapesSavFreeAses) {
  auto wp = make_world(GetParam(), 14);
  auto& w = *wp;
  auto& net = w.sim.net();
  Rng rng{GetParam() ^ 4};
  const Ipv4 foreign{203, 0, 113, 7};
  for (int trial = 0; trial < 20; ++trial) {
    const auto from = rng.pick(w.hosts);
    const auto to = rng.pick(w.hosts);
    if (from == to) continue;
    const auto before = w.sim.counters().dropped_sav;
    SendOptions opts;
    opts.dst = net.primary_addr(to);
    opts.dst_port = 4000;
    opts.spoof_src = foreign;
    w.sim.send_udp(from, std::move(opts));
    const bool sav = net.find_as(net.host(from).asn)
                         ->cfg.source_address_validation;
    EXPECT_EQ(w.sim.counters().dropped_sav, before + (sav ? 1 : 0));
  }
  w.sim.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(11, 23, 37, 59, 71, 97, 131));

// ---------------------------------------------------------------------
// Route equivalence: early-exit BFS and distance fields vs. full BFS
// ---------------------------------------------------------------------

/// Test-local oracle: a full BFS from `from` over the public neighbour
/// lists, in list order — the parent tree every route must follow.
struct FullBfs {
  std::unordered_map<Asn, Asn> parent;
  std::unordered_map<Asn, int> dist;

  FullBfs(const Network& net, Asn from) {
    std::vector<Asn> queue{from};
    dist[from] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Asn u = queue[head];
      for (const Asn v : net.find_as(u)->neighbors) {
        if (dist.contains(v)) continue;
        dist[v] = dist[u] + 1;
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  [[nodiscard]] int distance(Asn to) const {
    const auto it = dist.find(to);
    return it == dist.end() ? -1 : it->second;
  }
  /// Source-to-`to` AS path; empty when unreachable.
  [[nodiscard]] std::vector<Asn> path(Asn to) const {
    if (!dist.contains(to)) return {};
    std::vector<Asn> rev{to};
    while (dist.at(rev.back()) != 0) rev.push_back(parent.at(rev.back()));
    return {rev.rbegin(), rev.rend()};
  }
};

/// Adds one probe host per AS, in all_asns() order, from 198.18/15
/// (the benchmarking range, unused by every world builder), so every
/// (source AS, destination AS) pair has a routable destination.
std::vector<Ipv4> add_probe_hosts(Network& net) {
  std::vector<Ipv4> probes;
  std::uint32_t next = (198u << 24) | (18u << 16) | 1u;
  for (const Asn asn : net.all_asns()) {
    probes.emplace_back(next);
    (void)net.add_host(asn, {probes.back()});
    ++next;
  }
  net.freeze_addr_plane();
  return probes;
}

/// Tie-heavy random graph: two ladders (many equal-length paths) hung
/// off a K_{m,n} core, random chords, an isolated AS, all links added
/// in shuffled order so adjacency order varies with the seed.
std::unique_ptr<Network> make_tie_graph(std::uint64_t seed) {
  auto net = std::make_unique<Network>();
  Rng rng{seed};
  std::vector<Asn> asns;
  const auto add = [&] {
    AsConfig cfg;
    cfg.asn = static_cast<Asn>(1000 + 7 * asns.size() + rng.uniform_int(0, 6));
    cfg.internal_hops = rng.uniform_int(1, 3);
    net->add_as(cfg);
    asns.push_back(cfg.asn);
    return cfg.asn;
  };
  std::vector<std::pair<Asn, Asn>> edges;
  const int m = rng.uniform_int(2, 4);
  const int n = rng.uniform_int(2, 5);
  std::vector<Asn> left, right;
  for (int i = 0; i < m; ++i) left.push_back(add());
  for (int i = 0; i < n; ++i) right.push_back(add());
  for (const Asn a : left) {
    for (const Asn b : right) edges.emplace_back(a, b);
  }
  for (int ladder = 0; ladder < 2; ++ladder) {
    const int rungs = rng.uniform_int(3, 7);
    Asn prev0 = ladder == 0 ? rng.pick(left) : rng.pick(right);
    Asn prev1 = ladder == 0 ? rng.pick(left) : rng.pick(right);
    for (int r = 0; r < rungs; ++r) {
      const Asn a = add();
      const Asn b = add();
      edges.emplace_back(a, b);
      edges.emplace_back(prev0, a);
      edges.emplace_back(prev1, b);
      prev0 = a;
      prev1 = b;
    }
  }
  const std::size_t core = asns.size();
  for (std::size_t c = 0; c < core / 4; ++c) {
    edges.emplace_back(rng.pick(asns), rng.pick(asns));
  }
  add();  // isolated: unreachable from everything else
  rng.shuffle(edges);
  for (const auto& [a, b] : edges) net->link(a, b);
  return net;
}

/// Every (s, t) route's AS path and router hops equal the oracle's,
/// and as_distance agrees with it in both directions.
void expect_routes_match_oracle(const Network& net,
                                const std::vector<Ipv4>& probes) {
  const auto& asns = net.all_asns();
  for (std::size_t si = 0; si < asns.size(); ++si) {
    const FullBfs oracle(net, asns[si]);
    for (std::size_t ti = 0; ti < asns.size(); ++ti) {
      const auto want = oracle.path(asns[ti]);
      const auto route = net.route_from_as(asns[si], probes[ti]);
      ASSERT_EQ(route.has_value(), !want.empty()) << si << "->" << ti;
      EXPECT_EQ(net.as_distance(asns[si], asns[ti]), oracle.distance(asns[ti]));
      EXPECT_EQ(net.as_distance(asns[ti], asns[si]), oracle.distance(asns[ti]));
      if (!route) continue;
      EXPECT_EQ(route->as_path, want) << si << "->" << ti;
      std::vector<Ipv4> hops;
      for (const Asn asn : want) {
        const auto& ips = net.find_as(asn)->router_ips;
        hops.insert(hops.end(), ips.begin(), ips.end());
      }
      EXPECT_EQ(route->router_hops, hops) << si << "->" << ti;
    }
  }
}

class RouteEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteEquivalence, TieHeavyGraphsMatchFullBfsColdAndWarm) {
  auto net = make_tie_graph(GetParam());
  const auto probes = add_probe_hosts(*net);
  expect_routes_match_oracle(*net, probes);  // cold: every pair misses
  const auto misses = net->route_cache_stats().misses;
  expect_routes_match_oracle(*net, probes);  // warm: every pair hits
  EXPECT_EQ(net->route_cache_stats().misses, misses);
}

TEST_P(RouteEquivalence, ShuffledMissOrderMatchesFullBfs) {
  // Source-major order resumes one paused search per source; a
  // shuffled order switches source on almost every miss, so searches
  // mostly restart, and a same-source run now and then resumes one or
  // reads a destination it already passed. The path must never depend
  // on that history.
  auto net = make_tie_graph(GetParam());
  const auto probes = add_probe_hosts(*net);
  const auto& asns = net->all_asns();
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t si = 0; si < asns.size(); ++si) {
    for (std::size_t ti = 0; ti < asns.size(); ++ti) pairs.emplace_back(si, ti);
  }
  Rng rng{GetParam() ^ 5};
  rng.shuffle(pairs);
  RouteCache cache;
  for (const auto& [si, ti] : pairs) {
    const auto want = FullBfs(*net, asns[si]).path(asns[ti]);
    const auto view = net->route_view(cache, asns[si], probes[ti]);
    ASSERT_EQ(view.has_value(), !want.empty()) << si << "->" << ti;
    if (view) {
      EXPECT_EQ(*view->as_path, want) << si << "->" << ti;
    }
  }
}

TEST_P(RouteEquivalence, LinkAfterWarmUpInvalidatesSpansAndDistanceFields) {
  auto net = make_tie_graph(GetParam());
  const auto probes = add_probe_hosts(*net);
  const auto& asns = net->all_asns();
  expect_routes_match_oracle(*net, probes);
  // Warm every distance field too, then short-cut the two ends of the
  // farthest pair from the first AS — and connect the isolated AS.
  const FullBfs before(*net, asns.front());
  Asn far = asns.front();
  for (const Asn asn : asns) {
    if (before.distance(asn) > before.distance(far)) far = asn;
  }
  ASSERT_GE(before.distance(far), 3);
  const auto old_path = net->route_from_as(asns.front(), probes[net->as_index(far)]);
  ASSERT_TRUE(old_path.has_value());
  net->link(asns.front(), far);
  net->link(far, asns.back());
  EXPECT_EQ(net->as_distance(asns.front(), far), 1);
  EXPECT_EQ(net->as_distance(far, asns.front()), 1);
  EXPECT_EQ(net->as_distance(asns.back(), asns.front()), 2);
  const auto new_path = net->route_from_as(asns.front(), probes[net->as_index(far)]);
  ASSERT_TRUE(new_path.has_value());
  EXPECT_EQ(new_path->as_path, (std::vector<Asn>{asns.front(), far}));
  expect_routes_match_oracle(*net, probes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteEquivalence,
                         ::testing::Values(3, 17, 29, 41, 83, 101));

/// FNV-1a over every (source AS, destination AS) route of `net` in
/// all_asns() order: the AS path, then the router hops, each prefixed
/// by its length. `cache` is cleared after each source, so every pair
/// is a cold span miss and memory stays O(AS count).
std::uint64_t all_pairs_digest(const Network& net, RouteCache& cache,
                               const std::vector<Ipv4>& probes) {
  std::uint64_t h = util::kFnv1aBasis;
  for (const Asn from : net.all_asns()) {
    for (const Ipv4 dst : probes) {
      const auto view = net.route_view(cache, from, dst);
      if (!view) {
        h = util::fnv1a64(h, 0xFFFFFFFFu);
        continue;
      }
      h = util::fnv1a64(h, view->as_path->size());
      for (const Asn asn : *view->as_path) h = util::fnv1a64(h, asn);
      h = util::fnv1a64(h, view->router_hops->size());
      for (const Ipv4 hop : *view->router_hops) h = util::fnv1a64(h, hop.value());
    }
    cache.clear();
  }
  return h;
}

/// All-pairs route digest of the built world below, recorded from the
/// per-source full-BFS route tables the early-exit BFS replaced.
constexpr std::uint64_t kBuiltWorldPathDigest = 0x6f065dc4bae726ffull;

class BuiltWorldRoutes : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    topo::TopologyConfig cfg;
    cfg.scale = 0.0015;
    cfg.max_countries = 6;
    cfg.seed = 2021;
    cfg.sim.seed = 2021;
    cfg.bulk_population = true;
    world_ = topo::TopologyBuilder::build(cfg).release();
    probes_ = new std::vector<Ipv4>(add_probe_hosts(world_->sim().net()));
  }
  static void TearDownTestSuite() {
    delete probes_;
    delete world_;
  }
  static const Network& net() { return world_->sim().net(); }

  static topo::Deployment* world_;
  static std::vector<Ipv4>* probes_;
};
topo::Deployment* BuiltWorldRoutes::world_ = nullptr;
std::vector<Ipv4>* BuiltWorldRoutes::probes_ = nullptr;

TEST_F(BuiltWorldRoutes, AllPairsMatchFullBfsAndPinnedDigest) {
  ASSERT_GE(net().as_count(), 100u);
  expect_routes_match_oracle(net(), *probes_);
  RouteCache cache;
  EXPECT_EQ(all_pairs_digest(net(), cache, *probes_), kBuiltWorldPathDigest);
}

TEST_F(BuiltWorldRoutes, PerThreadCachesReproduceDigestOverOneFrozenNetwork) {
  // One immutable Network, four private caches driven concurrently
  // (the sharded runtime's shape): the per-cache BFS scratch and
  // distance fields must never leak between threads.
  constexpr int kThreads = 4;
  const auto& anycast_members = world_->pops();
  ASSERT_FALSE(anycast_members.empty());
  const auto distance_digest = [&](RouteCache& cache) {
    std::uint64_t h = util::kFnv1aBasis;
    for (const Asn from : net().all_asns()) {
      for (const auto& pop : anycast_members) {
        h = util::fnv1a64(h, static_cast<std::uint64_t>(
                                 net().as_distance(cache, from, pop.asn) + 1));
      }
    }
    return h;
  };
  RouteCache reference;
  const std::uint64_t want_distances = distance_digest(reference);
  std::vector<std::uint64_t> paths(kThreads), distances(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      RouteCache cache;
      distances[static_cast<std::size_t>(i)] = distance_digest(cache);
      paths[static_cast<std::size_t>(i)] =
          all_pairs_digest(net(), cache, *probes_);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(paths[static_cast<std::size_t>(i)], kBuiltWorldPathDigest) << i;
    EXPECT_EQ(distances[static_cast<std::size_t>(i)], want_distances) << i;
  }
}

}  // namespace
}  // namespace odns::netsim

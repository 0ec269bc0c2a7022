// Flat interned address plane (docs/architecture.md, "Flat address
// plane"): every lookup must match a test-local hash-map oracle and a
// golden digest pinned while the old map-based plane still ran beside
// it — per-lookup on a built world, and end-to-end through the full
// census across shard counts and seeds — and world construction must
// stay under a recorded bytes-per-host heap ceiling.
//
// This binary replaces global operator new/delete with size-tracking
// versions feeding test::allocaudit::live_bytes (alongside the
// counters); no other binary except alloc_audit_test defines
// replacements, so the rest of the suite runs on the stock allocator.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <malloc.h>
#include <new>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/census.hpp"
#include "topo/deployment.hpp"
#include "testutil.hpp"

// ---------------------------------------------------------------------
// Size-tracking global allocator (glibc malloc_usable_size gives the
// true block size, so live_bytes matches what the heap actually holds).
// ---------------------------------------------------------------------

namespace {

void* tracked_alloc(std::size_t size) {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  odns::test::allocaudit::allocations.fetch_add(1, std::memory_order_relaxed);
  odns::test::allocaudit::live_bytes.fetch_add(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  return p;
}

void* tracked_aligned_alloc(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc{};
  odns::test::allocaudit::allocations.fetch_add(1, std::memory_order_relaxed);
  odns::test::allocaudit::live_bytes.fetch_add(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  return p;
}

void tracked_free(void* p) noexcept {
  if (p == nullptr) return;
  odns::test::allocaudit::deallocations.fetch_add(1,
                                                  std::memory_order_relaxed);
  odns::test::allocaudit::live_bytes.fetch_sub(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return tracked_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return tracked_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return tracked_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  tracked_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}

namespace odns {
namespace {

using netsim::HostId;
using netsim::kInvalidHost;
using netsim::Network;
using test::allocaudit::AllocationScope;
using util::Ipv4;

topo::TopologyConfig small_world_cfg(std::uint64_t seed) {
  topo::TopologyConfig cfg;
  cfg.scale = 0.0015;
  cfg.max_countries = 6;
  cfg.seed = seed;
  cfg.sim.seed = seed;
  cfg.bulk_population = true;
  return cfg;
}

TEST(AddrPlane, LookupsMatchOracleOnBuiltWorld) {
  // Per-lookup check: on one built world, every interesting address
  // class — host unicast, anycast service addresses (from several
  // source ASes), router interfaces, and space nobody owns — resolves
  // as the oracle says, and all rows reproduce the pinned digest.
  const auto world = topo::TopologyBuilder::build(small_world_cfg(11));
  auto& net = world->sim().net();

  std::vector<Ipv4> probes;
  for (const auto& gt : world->ground_truth()) probes.push_back(gt.addr);
  for (const auto& pop : world->pops()) probes.push_back(pop.egress);
  for (const netsim::Asn asn : net.all_asns()) {
    for (const auto ip : net.find_as(asn)->router_ips) probes.push_back(ip);
  }
  probes.push_back(world->scanner_addr());
  probes.push_back(Ipv4{203, 0, 113, 77});  // unowned: must miss both ways
  probes.push_back(Ipv4{0, 0, 0, 0});

  // A few query-source ASes exercise the nearest-PoP anycast tie-break.
  std::vector<netsim::Asn> sources;
  for (std::size_t i = 0; i < net.all_asns().size(); i += 37) {
    sources.push_back(net.all_asns()[i]);
  }

  struct Row {
    HostId unicast;
    bool anycast;
    std::vector<HostId> resolved;
  };
  auto snapshot = [&] {
    std::vector<Row> rows;
    rows.reserve(probes.size());
    for (const auto addr : probes) {
      Row row;
      row.unicast = net.unicast_owner(addr);
      row.anycast = net.is_anycast(addr);
      for (const auto src : sources) {
        row.resolved.push_back(net.resolve_destination(addr, src));
      }
      rows.push_back(std::move(row));
    }
    return rows;
  };

  // Test-side oracle for the unicast plane: every host's addresses,
  // straight from the interned pool.
  std::unordered_map<Ipv4, HostId> oracle;
  for (HostId id = 0; id < net.host_count(); ++id) {
    for (const auto addr : net.host_addrs(id)) oracle.emplace(addr, id);
  }
  auto oracle_owner = [&](Ipv4 addr) {
    const auto it = oracle.find(addr);
    return it == oracle.end() ? kInvalidHost : it->second;
  };
  auto rows_digest = [](const std::vector<Row>& rows) {
    std::ostringstream out;
    for (const auto& row : rows) {
      out << row.unicast << ' ' << row.anycast;
      for (const auto h : row.resolved) out << ' ' << h;
      out << '\n';
    }
    return test::text_digest(out.str());
  };

  const auto rows = snapshot();
  // Pinned while both the flat table and the map plane answered these
  // lookups identically.
  constexpr std::uint64_t kLookupDigest = 0x6cfa9ba80bd3c6f7ull;
  EXPECT_EQ(rows_digest(rows), kLookupDigest);

  std::size_t owned = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].unicast, oracle_owner(probes[i])) << probes[i].to_string();
    if (!rows[i].anycast) {
      for (const auto h : rows[i].resolved) {
        EXPECT_EQ(h, oracle_owner(probes[i])) << probes[i].to_string();
      }
    }
    if (rows[i].unicast != kInvalidHost) ++owned;
  }
  EXPECT_GT(owned, 100u) << "the oracle check must cover real addresses";
}

TEST(AddrPlane, PostFreezeTailKeepsLookupsExactAndRejectsDuplicates) {
  // The freeze/tail/merge contract: addresses added after a freeze are
  // visible immediately (linear tail), survive the merge, and
  // duplicate assignments throw.
  Network net;
  netsim::AsConfig ac;
  ac.asn = 64500;
  net.add_as(ac);
  std::vector<HostId> hosts;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    hosts.push_back(
        net.add_host(64500, {Ipv4{static_cast<std::uint32_t>(
            (10u << 24) | i)}}));
  }
  net.freeze_addr_plane();
  // Post-freeze adds sit in the unsorted tail until the next merge.
  const HostId late = net.add_host(64500, {Ipv4{10, 1, 0, 1}});
  EXPECT_EQ(net.unicast_owner(Ipv4{10, 1, 0, 1}), late);
  EXPECT_EQ(net.unicast_owner(Ipv4{(10u << 24) | 1234u}), hosts[1234]);
  net.freeze_addr_plane();
  EXPECT_EQ(net.unicast_owner(Ipv4{10, 1, 0, 1}), late);
  EXPECT_THROW(net.add_host(64500, {Ipv4{10, 1, 0, 1}}),
               std::invalid_argument);
  // A multi-address host grown in place keeps its span coherent.
  net.add_host_address(late, Ipv4{10, 1, 0, 2});
  EXPECT_EQ(net.unicast_owner(Ipv4{10, 1, 0, 2}), late);
  EXPECT_EQ(net.host_addrs(late).size(), 2u);
  EXPECT_EQ(net.primary_addr(late), (Ipv4{10, 1, 0, 1}));
}

/// One digest over everything a census run observed (same shape as the
/// scale-census suite's fingerprint).
std::string census_fingerprint(const core::CensusResult& result) {
  std::ostringstream out;
  out << std::hex << classify::census_fingerprint(result.census) << '\n';
  for (const auto& txn : result.transactions) {
    out << txn.target.value() << ',' << txn.sent_at.nanos() << ','
        << txn.answered;
    if (txn.answered) {
      out << ',' << txn.response_src.value() << ',' << txn.rtt.count_nanos()
          << ',' << static_cast<int>(txn.rcode);
      for (const auto a : txn.answer_addrs) out << ',' << a.value();
    }
    out << '\n';
  }
  return out.str();
}

TEST(AddrPlane, CensusMatchesPinnedDigestAcrossShardsAndSeeds) {
  // The end-to-end contract, recorded: a full census reproduces the
  // bytes pinned when the flat table and the map plane both produced
  // them — for 1, 2, and 8 shards and across seeds.
  // Golden digests per seed, pinned while the flat and the map plane
  // both ran every shard count and agreed.
  constexpr std::pair<std::uint64_t, std::uint64_t> kCensusGolden[] = {
      {11, 0x7fc8b82f01ec4fa1ull},
      {2021, 0x94c8813b571de0ull},
  };
  for (const auto& [seed, golden] : kCensusGolden) {
    for (const std::uint32_t shards : {1u, 2u, 8u}) {
      core::CensusConfig cfg;
      cfg.topology = small_world_cfg(seed);
      cfg.sim_shards = shards;
      cfg.shard_interleaved_targets = true;
      cfg.vantages = shards;
      cfg.scan_timeout = util::Duration::seconds(2);
      const auto fp = census_fingerprint(core::run_census(cfg));
      ASSERT_FALSE(fp.empty());
      EXPECT_EQ(test::text_digest(fp), golden)
          << "seed=" << seed << " shards=" << shards;
    }
  }
}

TEST(AddrPlane, WorldConstructionBytesPerHostStaysUnderCeiling) {
  // The memory half of the tentpole, pinned: building a ~100k-host
  // bulk world must stay under a recorded live-heap ceiling per
  // ground-truth host. The ceiling is the measured post-flat-plane
  // value plus headroom — a regression back to per-host heap vectors
  // (~100+ bytes/host of node overhead alone) trips it immediately.
  topo::TopologyConfig cfg;
  cfg.scale = 0.047;
  cfg.seed = 97;
  cfg.sim.seed = 97;
  cfg.bulk_population = true;

  AllocationScope scope;
  const auto world = topo::TopologyBuilder::build(cfg);
  const std::int64_t live = scope.live_bytes_in_scope();

  const std::size_t hosts = world->ground_truth().size();
  ASSERT_GE(hosts, 80000u);
  ASSERT_GT(live, 0);
  const double bytes_per_host =
      static_cast<double>(live) / static_cast<double>(hosts);
  RecordProperty("bytes_per_host", static_cast<int>(bytes_per_host));
  // Recorded ceiling: see docs/benchmarks.md ("Flat address plane").
  EXPECT_LT(bytes_per_host, 600.0)
      << "world construction regressed to " << bytes_per_host
      << " heap bytes per host (live=" << live << ", hosts=" << hosts << ")";
}

}  // namespace
}  // namespace odns

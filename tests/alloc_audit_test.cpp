// Allocation audit for the arena wire path (docs/architecture.md,
// "Zero-allocation wire path"): after warm-up, the serving hot path —
// decode_into → AuthServer::build_mirror_response → encode_into — must
// perform ZERO heap allocations per message, and two whole censuses (a
// faulted streaming one and a per-host buffered one) stay under
// per-packet allocation ceilings. This
// binary replaces the global operator new/delete with counting versions
// feeding test::allocaudit (declared in testutil.hpp); no other test
// binary defines the replacements, so the rest of the suite runs on the
// stock allocator.
//
// The loop body deliberately avoids gtest assertions (they may touch
// the heap); it accumulates plain counters and asserts after the scope
// closes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "core/census.hpp"
#include "registry/registry.hpp"
#include "testutil.hpp"
#include "topo/deployment.hpp"

// ---------------------------------------------------------------------
// Counting global allocator. Replacement definitions live in exactly
// this translation unit; the counters they feed are the inline atomics
// in testutil.hpp.
// ---------------------------------------------------------------------

namespace {

void* counted_alloc(std::size_t size) {
  odns::test::allocaudit::allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  odns::test::allocaudit::allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  odns::test::allocaudit::deallocations.fetch_add(1,
                                                  std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace odns {
namespace {

using test::MiniWorld;
using test::allocaudit::AllocationScope;
using util::Ipv4;

// Allocations per simulated packet on the per-host census below,
// world build excluded: 5.64 when every DnsNode owned three wire
// arenas (and zone lookups built string keys), 4.47 with one arena set
// per thread.
constexpr double kPerHostCeiling = 5.0;

TEST(AllocAudit, CountingAllocatorIsActuallyHooked) {
  // Guards the zero-assertions below against vacuity: if the
  // replacement operators were not linked in, this fails first.
  AllocationScope scope;
  auto* sink = new std::vector<int>(1024, 7);
  EXPECT_GE(scope.allocations_in_scope(), 1u);
  delete sink;
  EXPECT_GE(scope.deallocations_in_scope(), 1u);
}

TEST(AllocAudit, MirrorServingPathIsZeroAllocationAfterWarmup) {
  MiniWorld world;
  const nodes::AuthServer& auth = *world.auth;

  // A representative scan probe, heap-encoded once up front. The hot
  // loop mutates only the TXID bytes and the mirrored client address,
  // like the real probe stream does.
  auto wire = dnswire::encode(
      dnswire::make_query(0x1234, world.scan_name, dnswire::RrType::a));
  ASSERT_FALSE(wire.empty());

  dnswire::WireArena rx;
  dnswire::WireArena scratch;
  dnswire::WireArena tx;

  const Ipv4 client_base{8, 8, 4, 0};
  auto serve_once = [&](std::uint32_t i, std::size_t& bytes_out) {
    wire[0] = static_cast<std::uint8_t>(i >> 8);
    wire[1] = static_cast<std::uint8_t>(i);
    rx.reset();
    scratch.reset();
    tx.reset();
    auto parsed =
        dnswire::decode_into(rx, std::span<const std::uint8_t>(wire));
    if (!parsed.ok()) return false;
    dnswire::MessageView resp;
    if (!auth.build_mirror_response(scratch, parsed.value(),
                                    Ipv4{client_base.value() + (i % 251)},
                                    resp)) {
      return false;
    }
    const auto out = dnswire::encode_into(tx, resp);
    bytes_out += out.size();
    return !out.empty();
  };

  // Warm-up: grows each arena to its steady-state chunk set.
  std::size_t warm_bytes = 0;
  for (std::uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(serve_once(i, warm_bytes));
  }
  const std::size_t rx_chunks = rx.chunk_count();
  const std::size_t scratch_chunks = scratch.chunk_count();
  const std::size_t tx_chunks = tx.chunk_count();

  constexpr std::uint32_t kMessages = 10000;
  std::uint32_t served = 0;
  std::size_t bytes = 0;
  AllocationScope scope;
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    if (serve_once(i, bytes)) ++served;
  }
  const std::uint64_t allocs = scope.allocations_in_scope();
  const std::uint64_t frees = scope.deallocations_in_scope();

  EXPECT_EQ(served, kMessages);
  EXPECT_GT(bytes, kMessages * 12u);  // real responses, not empty spans
  EXPECT_EQ(allocs, 0u) << "serving hot path touched the heap";
  EXPECT_EQ(frees, 0u);
  EXPECT_EQ(rx.chunk_count(), rx_chunks);
  EXPECT_EQ(scratch.chunk_count(), scratch_chunks);
  EXPECT_EQ(tx.chunk_count(), tx_chunks);
}

TEST(AllocAudit, StreamingCensusStaysUnderThreeAllocationsPerPacket) {
  // The Internet-scale census shape in miniature: bulk forwarder
  // population, three shards stepped in one thread with one capture
  // vantage each, streaming correlation, loss + jitter/reorder/dup/
  // corrupt faults and two retries. Every simulated packet crosses the
  // census packet path (capture, bank relay, resolver, auth); the
  // world build and registry derivation are counted separately and
  // subtracted.
  core::CensusConfig cfg;
  cfg.topology.scale = 0.01;
  cfg.topology.seed = 2021;
  cfg.topology.sim.seed = 2021;
  cfg.topology.bulk_population = true;
  cfg.topology.eyeball_as_multiplier = 4.0;
  cfg.topology.sim.shards = 3;
  cfg.topology.sim.shard_threads = false;
  cfg.topology.sim.loss_rate = 0.05;
  cfg.topology.sim.faults.jitter_rate = 0.3;
  cfg.topology.sim.faults.jitter_max = util::Duration::millis(5);
  cfg.topology.sim.faults.reorder_rate = 0.15;
  cfg.topology.sim.faults.dup_rate = 0.1;
  cfg.topology.sim.faults.corrupt_rate = 0.05;
  cfg.sim_shards = 3;
  cfg.shard_interleaved_targets = true;
  cfg.vantages = 3;
  cfg.streaming_correlation = true;
  cfg.retain_transactions = false;
  cfg.scan_timeout = util::Duration::seconds(2);
  cfg.probes_per_second = 100000;
  cfg.correlate_flush = util::Duration::millis(250);
  cfg.scan_max_retries = 2;
  cfg.scan_retry_backoff = util::Duration::millis(500);

  std::uint64_t build_allocs = 0;
  {
    AllocationScope scope;
    auto world = topo::TopologyBuilder::build(cfg.topology);
    const auto registry =
        registry::RegistrySnapshot::derive(*world, cfg.registry);
    build_allocs = scope.allocations_in_scope();
  }
  std::uint64_t census_allocs = 0;
  std::uint64_t packets = 0;
  std::uint64_t answered = 0;
  {
    AllocationScope scope;
    const auto result = core::run_census(cfg);
    census_allocs = scope.allocations_in_scope();
    packets = result.degradation.net.sent;
    answered = result.degradation.targets_answered;
  }
  ASSERT_GT(census_allocs, build_allocs);
  ASSERT_GT(packets, 10000u);
  ASSERT_GT(answered, 0u);
  const double per_packet = static_cast<double>(census_allocs - build_allocs) /
                            static_cast<double>(packets);
  EXPECT_LE(per_packet, 3.0) << census_allocs - build_allocs
                             << " allocations for " << packets << " packets";
}

TEST(AllocAudit, PerHostCensusStaysUnderCeilingPerPacket) {
  // The paper_census shape in miniature: the default census (one
  // shard, buffered correlation, one node object per simulated host).
  // Tens of thousands of DnsNodes each see a handful of datagrams, so
  // per-node wire arenas would cost chunk allocations per node; the
  // per-thread arena set costs none.
  core::CensusConfig cfg;
  cfg.topology.scale = 0.01;
  cfg.topology.seed = 2021;

  std::uint64_t build_allocs = 0;
  {
    AllocationScope scope;
    auto world = topo::TopologyBuilder::build(cfg.topology);
    const auto registry =
        registry::RegistrySnapshot::derive(*world, cfg.registry);
    build_allocs = scope.allocations_in_scope();
  }
  std::uint64_t census_allocs = 0;
  std::uint64_t packets = 0;
  {
    AllocationScope scope;
    const auto result = core::run_census(cfg);
    census_allocs = scope.allocations_in_scope();
    packets = result.degradation.net.sent;
  }
  ASSERT_GT(census_allocs, build_allocs);
  ASSERT_GT(packets, 10000u);
  const double per_packet = static_cast<double>(census_allocs - build_allocs) /
                            static_cast<double>(packets);
  EXPECT_LE(per_packet, kPerHostCeiling)
      << census_allocs - build_allocs << " allocations for " << packets
      << " packets";
}

TEST(AllocAudit, ArenaRetainsChunksAcrossReset) {
  dnswire::WireArena arena;
  (void)arena.alloc_array<std::uint8_t>(1000);
  const std::size_t warmed = arena.chunk_count();
  ASSERT_GE(warmed, 1u);

  AllocationScope scope;
  for (int i = 0; i < 1000; ++i) {
    arena.reset();
    (void)arena.alloc_array<std::uint8_t>(1000);
  }
  EXPECT_EQ(scope.allocations_in_scope(), 0u);
  EXPECT_EQ(arena.chunk_count(), warmed);
}

}  // namespace
}  // namespace odns

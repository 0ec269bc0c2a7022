#pragma once
// Route-cache storage, factored out of Network so a sharded simulator
// can give every shard a private instance (no shared `mutable` maps
// across threads). Network stays the single owner of the *logic* —
// cache-taking overloads of `route_view` etc. fill these structures —
// while this class is dumb epoch-tagged storage:
//
//   * route entries:   (source ASN, destination IP) -> span + dst host
//   * span entries:    (source AS, destination AS)  -> router-hop span
//   * distance fields: destination AS -> hop distance of every AS to it
//                      (anycast nearest-PoP selection; one per anycast
//                      member AS ever asked about)
//   * BFS scratch:     one paused BFS (stamp-marked visited array, flat
//                      queue, parent array, resume cursor), shared by
//                      every span miss
//
// There are no per-source BFS tables. A span miss runs a BFS from the
// source over the Network's AS-index adjacency only until the
// destination AS is discovered; its parent chain is then already final,
// so the path equals the full-BFS parent tree's, tie-breaks included.
// The search is then paused, not discarded: the next miss from the
// same source resumes it (or reads a destination it already reached),
// and a miss from any other source starts over. A scan probing many
// destinations from one AS therefore pays about one BFS in total.
//
// Invalidation contract (docs/architecture.md, "Routing fast path"):
// a cache serves one Network. Route and span entries are stamped with
// Network::topology_epoch(); distance fields and the paused search
// with the graph epoch (bumped only by add_as/link, the mutations that
// change the AS graph shape). A lookup that finds an older stamp
// recomputes the entry in place — there is no mutation-time scan, so
// world construction stays cheap and the scan phase runs entirely on
// warm entries. Under sharding each shard's cache converges
// independently; entries and scratch are never shared between caches,
// so no locking is needed anywhere on the per-packet path.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "netsim/packet.hpp"
#include "util/ipv4.hpp"

namespace odns::netsim {

/// Route-cache observability: `hits` are served without recomputation,
/// `misses` fill a fresh entry, `stale_evictions` count entries that
/// were lazily recomputed because the topology epoch moved past them.
struct RouteCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale_evictions = 0;
};

/// Precomputed router-hop span for one (source AS, destination AS)
/// pair: the AS path plus the concatenation of every traversed AS's
/// internal router chain. Shared (via shared_ptr) by all route-cache
/// entries whose destinations live in the same AS.
struct PathSpan {
  std::vector<Asn> as_path;
  std::vector<util::Ipv4> router_hops;
};

class RouteCache {
 public:
  struct SpanEntry {
    std::uint64_t epoch = 0;
    std::shared_ptr<const PathSpan> span;  // nullptr: no AS path
  };
  struct RouteEntry {
    std::uint64_t epoch = 0;
    std::shared_ptr<const PathSpan> span;  // nullptr: unroutable
    HostId dst_host = kInvalidHost;
  };
  /// Hop distance from every AS (by AS index) to one destination AS;
  /// kUnreached where no path exists.
  struct DistField {
    std::uint64_t graph_epoch = 0;
    std::vector<std::uint16_t> dist;
  };
  static constexpr std::uint16_t kUnreached = 0xFFFF;

  /// The paused BFS, sized to the AS count when a search starts. An AS
  /// has been discovered iff `seen[i] == stamp`, so a new search costs
  /// one stamp bump instead of clearing O(AS) arrays. The search from
  /// `source` resumes at neighbour `edge` of `queue[head]`; it is valid
  /// only while `graph_epoch` matches the Network's (0: none).
  struct BfsScratch {
    std::vector<std::uint32_t> seen;
    std::vector<std::uint32_t> parent;  // valid where seen == stamp
    std::vector<std::uint32_t> queue;   // discovery order
    std::uint32_t stamp = 0;
    std::uint32_t source = 0;
    std::uint64_t graph_epoch = 0;
    std::size_t head = 0;
    std::size_t edge = 0;
  };

  void clear() {
    routes.clear();
    spans.clear();
    dist_fields.clear();
    scratch.graph_epoch = 0;
  }

  [[nodiscard]] const RouteCacheStats& cache_stats() const { return stats; }

  // Storage is public to its driver (Network); everything here is an
  // implementation detail of the routing fast path, not API.
  // (source ASN << 32 | destination IP) -> cached route; stale entries
  // (epoch mismatch) are recomputed in place on their next lookup.
  std::unordered_map<std::uint64_t, RouteEntry> routes;
  // (source AS index << 32 | destination AS index) -> hop span.
  std::unordered_map<std::uint64_t, SpanEntry> spans;
  // destination AS index -> distances to it (see DistField).
  std::unordered_map<std::uint32_t, DistField> dist_fields;
  BfsScratch scratch;
  RouteCacheStats stats;
};

}  // namespace odns::netsim

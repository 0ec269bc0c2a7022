#pragma once
// DNS record cache with TTL decay and RFC 2308 negative caching. Used
// by recursive resolvers and caching forwarders; cache hit/miss counts
// feed the paper's Table 2 (method cost comparison).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "dnswire/name.hpp"
#include "util/time.hpp"

namespace odns::nodes {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t negative_hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
};

/// A cached answer: either a record set or a negative (NXDOMAIN /
/// NODATA) entry. Remaining TTL is computed against the clock at
/// lookup, so cached responses are served with decayed TTLs — the
/// observable the paper uses to demonstrate response caching (Fig. 7).
struct CachedAnswer {
  std::vector<dnswire::ResourceRecord> records;  // empty for negative
  bool negative = false;
  dnswire::Rcode rcode = dnswire::Rcode::noerror;
  std::uint32_t remaining_ttl = 0;
};

class DnsCache {
 public:
  explicit DnsCache(std::uint32_t max_ttl = 86400, std::size_t max_entries = 1 << 20)
      : max_ttl_(max_ttl), max_entries_(max_entries) {}

  /// Stores a positive record set under (name, type).
  void put(const dnswire::Name& name, dnswire::RrType type,
           const std::vector<dnswire::ResourceRecord>& records,
           util::SimTime now);

  /// Stores a negative entry (rcode + SOA-derived TTL).
  void put_negative(const dnswire::Name& name, dnswire::RrType type,
                    dnswire::Rcode rcode, std::uint32_t ttl,
                    util::SimTime now);

  /// Looks up (name, type); expired entries are treated as misses and
  /// dropped lazily.
  std::optional<CachedAnswer> get(const dnswire::Name& name,
                                  dnswire::RrType type, util::SimTime now);

  /// A hit that borrows the cached record set (TTLs as stored) instead
  /// of copying it. Valid until the next put/put_negative/clear.
  struct Hit {
    const std::vector<dnswire::ResourceRecord>* records = nullptr;
    bool negative = false;
    dnswire::Rcode rcode = dnswire::Rcode::noerror;
    std::uint32_t remaining_ttl = 0;

    /// The record set as views in `arena`, each TTL set to the decayed
    /// remainder (empty for a negative entry).
    [[nodiscard]] std::span<const dnswire::RecordView> answer_views(
        dnswire::WireArena& arena) const;
  };
  /// get() without the copy, keyed by a NameKey — a decoded view's
  /// labels or an ancestor suffix look entries up without allocating.
  /// Counts hits and misses exactly like get().
  std::optional<Hit> find(const dnswire::NameKey& key, util::SimTime now);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    std::vector<dnswire::ResourceRecord> records;
    bool negative = false;
    dnswire::Rcode rcode = dnswire::Rcode::noerror;
    util::SimTime expiry;
    std::uint32_t original_ttl = 0;
  };

  std::uint32_t max_ttl_;
  std::size_t max_entries_;
  /// Keyed by NameKey bytes (lower-cased wire name + type): equal keys
  /// are equal label sequences, so a hash collision or a label holding
  /// a literal '.' cannot make two names share an entry.
  std::unordered_map<std::string, Entry, dnswire::NameKeyHash,
                     std::equal_to<>>
      entries_;
  CacheStats stats_;
};

}  // namespace odns::nodes

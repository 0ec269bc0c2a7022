#include "nodes/cache.hpp"

#include <algorithm>

namespace odns::nodes {

using dnswire::NameKey;

void DnsCache::put(const dnswire::Name& name, dnswire::RrType type,
                   const std::vector<dnswire::ResourceRecord>& records,
                   util::SimTime now) {
  if (records.empty()) return;
  std::uint32_t ttl = max_ttl_;
  for (const auto& rr : records) ttl = std::min(ttl, rr.ttl);
  if (entries_.size() >= max_entries_) {
    // Full: drop an arbitrary entry (the paper's resolvers face cache
    // eviction pressure from query-based scans; modeled coarsely).
    entries_.erase(entries_.begin());
    ++stats_.evictions;
  }
  Entry e;
  e.records = records;
  e.expiry = now + util::Duration::seconds(ttl);
  e.original_ttl = ttl;
  entries_.insert_or_assign(std::string(NameKey(name.labels(), type).bytes()),
                            std::move(e));
  ++stats_.inserts;
}

void DnsCache::put_negative(const dnswire::Name& name, dnswire::RrType type,
                            dnswire::Rcode rcode, std::uint32_t ttl,
                            util::SimTime now) {
  Entry e;
  e.negative = true;
  e.rcode = rcode;
  e.expiry = now + util::Duration::seconds(std::min(ttl, max_ttl_));
  e.original_ttl = ttl;
  entries_.insert_or_assign(std::string(NameKey(name.labels(), type).bytes()),
                            std::move(e));
  ++stats_.inserts;
}

std::optional<DnsCache::Hit> DnsCache::find(const NameKey& key,
                                            util::SimTime now) {
  auto it = entries_.find(key.bytes());
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  if (it->second.expiry <= now) {
    entries_.erase(it);
    ++stats_.misses;
    return std::nullopt;
  }
  const Entry& e = it->second;
  Hit hit;
  hit.records = &e.records;
  hit.negative = e.negative;
  hit.rcode = e.rcode;
  const auto remaining =
      static_cast<std::uint32_t>((e.expiry - now).as_seconds());
  hit.remaining_ttl = std::max<std::uint32_t>(remaining, 1);
  if (e.negative) {
    ++stats_.negative_hits;
  } else {
    ++stats_.hits;
  }
  return hit;
}

std::span<const dnswire::RecordView> DnsCache::Hit::answer_views(
    dnswire::WireArena& arena) const {
  if (negative) return {};
  const auto out = arena.alloc_array<dnswire::RecordView>(records->size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = dnswire::view_of(arena, (*records)[i]);
    out[i].ttl = remaining_ttl;
  }
  return out;
}

std::optional<CachedAnswer> DnsCache::get(const dnswire::Name& name,
                                          dnswire::RrType type,
                                          util::SimTime now) {
  const auto hit = find(NameKey(name.labels(), type), now);
  if (!hit) return std::nullopt;
  CachedAnswer out;
  out.negative = hit->negative;
  out.rcode = hit->rcode;
  out.remaining_ttl = hit->remaining_ttl;
  if (!hit->negative) {
    out.records = *hit->records;
    for (auto& rr : out.records) rr.ttl = out.remaining_ttl;
  }
  return out;
}

}  // namespace odns::nodes

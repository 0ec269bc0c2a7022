#pragma once
// Bump allocator backing the zero-allocation wire codec
// (codec.hpp). A WireArena owns a chain of chunks; reset()
// rewinds the cursor but keeps every chunk, so a warmed arena serves
// an unbounded message stream without touching the heap again. The
// packet path leases one ArenaSet per thread; docs/architecture.md,
// "The zero-allocation wire path" has its lifetime and nesting rules.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace odns::dnswire {

class WireArena {
 public:
  WireArena() = default;
  WireArena(const WireArena&) = delete;
  WireArena& operator=(const WireArena&) = delete;

  /// Rewinds the cursor to the start of the first chunk. Every pointer
  /// previously handed out becomes dangling; chunk memory is retained.
  void reset() {
    chunk_ = 0;
    offset_ = 0;
  }

  /// Typed array allocation; elements are default-constructed. Only
  /// trivially destructible types may live in the arena (reset() never
  /// runs destructors), aligned no stricter than a chunk start.
  template <typename T>
  std::span<T> alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    if (n == 0) return {};
    T* mem = static_cast<T*>(alloc_bytes(n * sizeof(T), alignof(T)));
    for (std::size_t i = 0; i < n; ++i) new (mem + i) T();
    return {mem, n};
  }

  template <typename T>
  T* alloc() { return alloc_array<T>(1).data(); }

  /// Chunks currently owned — stable across reset(); growth after
  /// warm-up is what the allocation audit (tests/alloc_audit_test.cpp)
  /// rules out.
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  // One chunk size: a DNS message and its views fit one chunk; a
  // larger request gets a chunk of its own size.
  static constexpr std::size_t kChunkSize = 4096;

  void* alloc_bytes(std::size_t size, std::size_t align) {
    if (chunk_ < chunks_.size()) {
      const std::size_t aligned = (offset_ + align - 1) & ~(align - 1);
      if (aligned + size <= chunks_[chunk_].size) {
        offset_ = aligned + size;
        return chunks_[chunk_].data.get() + aligned;
      }
    }
    return alloc_slow(size);
  }

  // Moves to the next retained chunk that fits, else grows one. A
  // chunk start (operator new[]) is aligned for every arena type.
  void* alloc_slow(std::size_t size) {
    if (!chunks_.empty()) ++chunk_;
    while (chunk_ < chunks_.size() && chunks_[chunk_].size < size) ++chunk_;
    if (chunk_ == chunks_.size()) {
      const std::size_t want = size > kChunkSize ? size : kChunkSize;
      chunks_.push_back(
          {std::make_unique_for_overwrite<std::byte[]>(want), want});
    }
    offset_ = size;
    return chunks_[chunk_].data.get();
  }

  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;
  std::size_t offset_ = 0;
};

/// The packet path's arenas, one set per thread: `rx` holds the decoded
/// datagram, `scratch` the views a handler builds, `tx` the encoded one.
/// A thread runs one handler at a time and delivery is queued, so a
/// view dies at the next handler entry on its thread.
struct ArenaSet {
  WireArena rx;
  WireArena tx;
  WireArena scratch;
  bool leased = false;

  static ArenaSet& this_thread() {
    static thread_local ArenaSet set;
    return set;
  }
};

/// A packet handler's hold on its thread's set, from entry to return:
/// resets the three arenas; throws std::logic_error while another
/// handler on this thread holds the set.
struct ArenaLease {
  ArenaSet& set = ArenaSet::this_thread();
  ArenaLease() {
    if (set.leased) throw std::logic_error("ArenaLease: nested handlers");
    set.leased = true;
    set.rx.reset();
    set.tx.reset();
    set.scratch.reset();
  }
  ~ArenaLease() { set.leased = false; }
  ArenaLease(const ArenaLease&) = delete;
};

}  // namespace odns::dnswire

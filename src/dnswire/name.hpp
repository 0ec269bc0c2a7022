#pragma once
// Domain names as label sequences. Comparison and hashing are ASCII
// case-insensitive (RFC 1035 §2.3.3); presentation parsing enforces the
// 63-octet label and 255-octet name limits.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "dnswire/types.hpp"

namespace odns::dnswire {

class Name {
 public:
  Name() = default;  // the root name

  /// Parses presentation format ("www.example.com", trailing dot
  /// optional; "." is the root). Returns nullopt when a label is empty,
  /// overlong, or the total wire length would exceed 255 octets.
  static std::optional<Name> parse(std::string_view text);

  /// Builds from raw labels (must already satisfy length limits).
  static std::optional<Name> from_labels(std::vector<std::string> labels);

  [[nodiscard]] bool is_root() const { return labels_.empty(); }
  [[nodiscard]] std::size_t label_count() const { return labels_.size(); }
  [[nodiscard]] const std::vector<std::string>& labels() const {
    return labels_;
  }

  /// Wire-format length in octets (sum of label lengths + length bytes
  /// + terminating zero), without compression.
  [[nodiscard]] std::size_t wire_length() const;

  /// "www.example.com" (no trailing dot); "." for the root.
  [[nodiscard]] std::string to_string() const;

  /// True if this name is `zone` or ends in `zone`
  /// (e.g. "a.example.com" is under "example.com").
  [[nodiscard]] bool is_subdomain_of(const Name& zone) const;

  /// New name with `label` prepended: prepend("a") on "b.c" -> "a.b.c".
  [[nodiscard]] std::optional<Name> prepend(std::string_view label) const;

  /// Parent name (one label stripped); root's parent is root.
  [[nodiscard]] Name parent() const;

  bool operator==(const Name& other) const;
  bool operator!=(const Name& other) const { return !(*this == other); }

  /// Canonical (case-folded) form for map keys.
  [[nodiscard]] std::string canonical() const;

 private:
  std::vector<std::string> labels_;
};

/// A (name, type) map key built without the heap: the lower-cased
/// uncompressed wire name (length-prefixed labels, zero octet) plus the
/// type's two octets. Takes a Name's or a NameView's labels; `first`
/// skips leading labels, keying an ancestor without a new Name. Equal
/// keys are equal label sequences up to ASCII case.
class NameKey {
 public:
  template <typename Labels>
  NameKey(const Labels& labels, RrType type, std::size_t first = 0) {
    for (std::size_t i = first; i < std::size(labels); ++i) {
      const std::string_view label = labels[i];
      if (size_ + 1 + label.size() + 3 > buf_.size()) {
        throw std::length_error("NameKey: name longer than 255 octets");
      }
      buf_[size_++] = static_cast<char>(label.size());
      for (const char c : label) {
        buf_[size_++] =
            (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
      }
    }
    const auto t = static_cast<std::uint16_t>(type);
    buf_[size_++] = 0;
    buf_[size_++] = static_cast<char>(t >> 8);
    buf_[size_++] = static_cast<char>(t & 0xFF);
  }

  [[nodiscard]] std::string_view bytes() const { return {buf_.data(), size_}; }

 private:
  std::array<char, 258> buf_;
  std::size_t size_ = 0;
};

/// Transparent hash for maps keyed by NameKey bytes held in a
/// std::string: find() takes the key's string_view, so a lookup never
/// allocates. Pair it with std::equal_to<>.
struct NameKeyHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view bytes) const noexcept {
    return std::hash<std::string_view>{}(bytes);
  }
};

}  // namespace odns::dnswire

template <>
struct std::hash<odns::dnswire::Name> {
  std::size_t operator()(const odns::dnswire::Name& n) const noexcept {
    return std::hash<std::string>{}(n.canonical());
  }
};

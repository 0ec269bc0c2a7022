#pragma once
// The DNS wire codec (RFC 1035 §4). decode_into() parses a datagram
// into a MessageView (labels view the wire, sections live in the arena)
// and encode_into() serializes one with name compression. Decoding is
// fully bounds-checked: malformed input yields an error, never UB. The
// census packet path runs on views; decode()/encode() wrap the same
// codec for heap-model callers. tests/dnswire_differential_test.cpp
// and tests/dnswire_fuzz_test.cpp pin its output and verdicts.
//
// Lifetime rules: every pointer inside a MessageView aims either at
// the wire buffer passed to decode_into() or at the WireArena, so a
// view is valid only while BOTH outlive it and the arena has not been
// reset(). Nodes reset their receive arena at datagram entry — views
// must never be stored across messages.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/message.hpp"
#include "util/ipv4.hpp"
#include "util/result.hpp"

namespace odns::dnswire {

enum class DecodeError {
  truncated,
  label_overflow,
  name_overflow,
  bad_compression_pointer,
  pointer_loop,
  bad_rdata,
  bad_question,
};

std::string to_string(DecodeError e);

/// A domain name as a span of labels. Decoded labels point into the
/// wire buffer (zero copy); view_of() labels point into Name storage.
struct NameView {
  std::span<const std::string_view> labels;

  /// Same label sequence up to ASCII case.
  [[nodiscard]] bool equals(const Name& other) const;
  /// Uncompressed wire length (length bytes + labels + terminator).
  [[nodiscard]] std::size_t wire_length() const;
  /// Materializes an owning Name (allocates; cold paths only).
  [[nodiscard]] Name to_name() const;
};

struct SoaView {
  NameView mname;
  NameView rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;
};

/// Tagged union mirroring the heap model's Rdata variant, flattened so
/// records stay trivially destructible (arena requirement).
struct RdataView {
  enum class Tag : std::uint8_t { a, name, txt, soa, opt, raw };

  Tag tag = Tag::a;
  util::Ipv4 a_addr;                         // tag == a
  NameView name;                             // tag == name (NS/CNAME/PTR)
  std::span<const std::string_view> txt;     // tag == txt
  const SoaView* soa = nullptr;              // tag == soa
  std::uint16_t udp_payload_size = 0;        // tag == opt
  std::span<const std::uint8_t> raw;         // tag == raw
};

struct QuestionView {
  NameView name;
  RrType type = RrType::a;
  RrClass klass = RrClass::in;
};

struct RecordView {
  NameView name;
  RrType type = RrType::a;
  RrClass klass = RrClass::in;
  std::uint32_t ttl = 0;
  RdataView rdata;
};

struct MessageView {
  Header header;
  std::span<const QuestionView> questions;
  std::span<const RecordView> answers;
  std::span<const RecordView> authorities;
  std::span<const RecordView> additionals;
};

/// Parses `wire` into a view backed by `arena` + the wire buffer.
util::Result<MessageView, DecodeError> decode_into(
    WireArena& arena, std::span<const std::uint8_t> wire);

/// Serializes `msg` into `arena`. Compression pointers reuse earlier
/// suffixes with the same labels up to ASCII case, first occurrence
/// wins. The returned span lives until arena reset.
std::span<const std::uint8_t> encode_into(WireArena& arena,
                                          const MessageView& msg);

/// make_response() on views: a response skeleton echoing the query's
/// ID, RD bit and questions (borrowed from `query`).
MessageView make_response(const MessageView& query,
                          Rcode rcode = Rcode::noerror);

/// Owning copies of views (allocate; decode() and the nodes' heap-model
/// fallback and caches use them).
Message materialize(const MessageView& msg);
ResourceRecord materialize(const RecordView& rr);

/// Views over existing heap objects: labels/spans reference the
/// object's own storage plus `arena` for the arrays. Valid while both
/// the object and the arena epoch live.
MessageView view_of(WireArena& arena, const Message& msg);
RecordView view_of(WireArena& arena, const ResourceRecord& rr);
NameView view_of(WireArena& arena, const Name& name);

/// Heap-model entry points over the same codec (allocate; cold paths
/// and tests). encode never fails for messages built through the
/// public API (names are validated at construction).
std::vector<std::uint8_t> encode(const Message& msg);
util::Result<Message, DecodeError> decode(std::span<const std::uint8_t> wire);

}  // namespace odns::dnswire

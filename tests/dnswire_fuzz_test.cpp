// Fuzz-style round-trip hardening for the dnswire codec, driven by a
// seeded util::Rng (deterministic, so failures replay): randomized
// TXT/ANY-shaped messages must encode → decode → re-encode to the
// identical wire image, and the decoder must survive every truncated
// prefix and random corruption of those images without crashing
// (returning a DecodeError is fine; UB is not — the TSan/ASan jobs run
// this suite too).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace odns {
namespace {

using dnswire::Message;
using dnswire::Name;
using dnswire::ResourceRecord;
using dnswire::RrType;

/// Running digest of decoder verdicts: each input folds in its
/// DecodeError, or its re-encoded wire image when it decodes. Pinned
/// per test while a separate heap decoder still ran side by side with
/// the arena decoder (and agreed with it on every input), so the one
/// remaining decoder keeps that decoder's acceptance rules.
struct VerdictDigest {
  std::uint64_t h = util::kFnv1aBasis;
  std::size_t inputs = 0;
  std::size_t accepted = 0;
};

/// Decodes `wire` (valid, truncated, corrupted, or garbage) and folds
/// the verdict into `digest`. An accepted input must re-encode to the
/// same image from the view and from the materialized message.
void record_verdict(std::span<const std::uint8_t> wire,
                    VerdictDigest& digest) {
  ++digest.inputs;
  dnswire::WireArena arena;
  auto view = dnswire::decode_into(arena, wire);
  if (!view.ok()) {
    digest.h = util::fnv1a64(digest.h, 1000 + static_cast<int>(view.error()));
    return;
  }
  dnswire::WireArena tx;
  const auto arena_wire = dnswire::encode_into(tx, view.value());
  const auto heap_wire = dnswire::encode(dnswire::materialize(view.value()));
  ASSERT_EQ(arena_wire.size(), heap_wire.size());
  EXPECT_TRUE(
      std::equal(arena_wire.begin(), arena_wire.end(), heap_wire.begin()));
  ++digest.accepted;
  digest.h = util::fnv1a64(digest.h, arena_wire.size());
  for (const auto b : arena_wire) digest.h = util::fnv1a64(digest.h, b);
}

void expect_verdicts(const VerdictDigest& d, std::size_t inputs,
                     std::size_t accepted, std::uint64_t h) {
  EXPECT_EQ(d.inputs, inputs);
  EXPECT_EQ(d.accepted, accepted);
  EXPECT_EQ(d.h, h) << std::hex << "verdict digest 0x" << d.h;
}

Name random_name(util::Rng& rng) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string text;
  const int labels = rng.uniform_int(1, 4);
  for (int i = 0; i < labels; ++i) {
    if (i > 0) text.push_back('.');
    const int len = rng.uniform_int(1, 12);
    for (int j = 0; j < len; ++j) {
      text.push_back(kAlphabet[rng.uniform(0, sizeof(kAlphabet) - 2)]);
    }
  }
  auto name = Name::parse(text);
  EXPECT_TRUE(name.has_value()) << text;
  return name.value_or(Name{});
}

/// TXT rdata with arbitrary bytes, including empty strings and strings
/// at the 255-octet character-string limit.
std::vector<std::string> random_txt_strings(util::Rng& rng) {
  std::vector<std::string> strings;
  const int count = rng.uniform_int(1, 4);
  for (int i = 0; i < count; ++i) {
    std::size_t len = rng.uniform(0, 64);
    if (rng.chance(0.2)) len = 255;
    std::string s;
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform(0, 255)));
    }
    strings.push_back(std::move(s));
  }
  return strings;
}

RrType random_qtype(util::Rng& rng) {
  static constexpr RrType kTypes[] = {RrType::a, RrType::ns, RrType::cname,
                                      RrType::txt, RrType::any};
  return kTypes[rng.uniform(0, std::size(kTypes) - 1)];
}

/// An amplification-shaped message: TXT/ANY question, fat mixed answer
/// section, randomized header flags.
Message random_message(util::Rng& rng) {
  Message msg;
  msg.header.id = static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
  msg.header.qr = rng.chance(0.5);
  msg.header.aa = rng.chance(0.5);
  msg.header.tc = rng.chance(0.2);
  msg.header.rd = rng.chance(0.5);
  msg.header.ra = rng.chance(0.5);
  const int questions = rng.uniform_int(0, 2);
  for (int i = 0; i < questions; ++i) {
    msg.questions.push_back({random_name(rng), random_qtype(rng)});
  }
  const int answers = rng.uniform_int(0, 5);
  for (int i = 0; i < answers; ++i) {
    const Name name = random_name(rng);
    const auto ttl = static_cast<std::uint32_t>(rng.uniform(0, 86400));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        msg.answers.push_back(ResourceRecord::txt(
            name, random_txt_strings(rng), ttl));
        break;
      case 1:
        msg.answers.push_back(ResourceRecord::a(
            name, util::Ipv4{static_cast<std::uint32_t>(
                      rng.uniform(0, 0xffffffff))},
            ttl));
        break;
      case 2:
        msg.answers.push_back(ResourceRecord::ns(name, random_name(rng),
                                                 ttl));
        break;
      default:
        msg.answers.push_back(ResourceRecord::cname(name, random_name(rng),
                                                    ttl));
        break;
    }
  }
  if (rng.chance(0.3)) {
    msg.authorities.push_back(ResourceRecord::soa(
        random_name(rng), random_name(rng),
        static_cast<std::uint32_t>(rng.uniform(0, 1u << 30)),
        static_cast<std::uint32_t>(rng.uniform(0, 3600))));
  }
  return msg;
}

TEST(DnswireFuzz, RandomMessagesRoundTripByteExactly) {
  util::Rng rng(0xD15EA5E);
  VerdictDigest digest;
  for (int iter = 0; iter < 200; ++iter) {
    const Message msg = random_message(rng);
    const auto wire = dnswire::encode(msg);
    auto decoded = dnswire::decode(wire);
    ASSERT_TRUE(decoded) << "iteration " << iter;

    // Structural identity on the comparable pieces...
    EXPECT_EQ(decoded.value().header.id, msg.header.id);
    EXPECT_EQ(decoded.value().header.tc, msg.header.tc);
    EXPECT_EQ(decoded.value().questions, msg.questions);
    EXPECT_EQ(decoded.value().answers, msg.answers);
    EXPECT_EQ(decoded.value().authorities, msg.authorities);
    // ...and byte identity through a second encode: decode loses
    // nothing the encoder can see.
    EXPECT_EQ(dnswire::encode(decoded.value()), wire) << "iteration " << iter;
    record_verdict(wire, digest);
  }
  expect_verdicts(digest, 200, 200, 0xbf5a97be1ebbf463);
}

TEST(DnswireFuzz, EveryTruncatedPrefixDecodesWithoutCrashing) {
  util::Rng rng(0xBADC0DE);
  VerdictDigest digest;
  for (int iter = 0; iter < 50; ++iter) {
    const auto wire = dnswire::encode(random_message(rng));
    for (std::size_t len = 0; len < wire.size(); ++len) {
      // Must return (value or error), never crash or overread.
      record_verdict(std::span<const std::uint8_t>(wire.data(), len),
                          digest);
    }
  }
  expect_verdicts(digest, 14435, 0, 0x51594490c38d89c);
}

TEST(DnswireFuzz, RandomCorruptionDecodesWithoutCrashing) {
  util::Rng rng(0xFACADE);
  VerdictDigest digest;
  for (int iter = 0; iter < 100; ++iter) {
    auto wire = dnswire::encode(random_message(rng));
    if (wire.empty()) continue;
    const int flips = rng.uniform_int(1, 8);
    for (int i = 0; i < flips; ++i) {
      wire[rng.uniform(0, wire.size() - 1)] =
          static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    auto result = dnswire::decode(wire);
    // Whatever still decodes must re-encode without crashing either.
    if (result) (void)dnswire::encode(result.value());
    record_verdict(wire, digest);
  }
  expect_verdicts(digest, 100, 52, 0x683697ec5e0cd811);
}

TEST(DnswireFuzz, PureGarbageBuffersDecodeWithoutCrashing) {
  util::Rng rng(0x5EED);
  VerdictDigest digest;
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::uint8_t> junk(rng.uniform(0, 300));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    }
    record_verdict(junk, digest);
  }
  expect_verdicts(digest, 200, 0, 0x7c36325fe82286aa);
}

}  // namespace
}  // namespace odns

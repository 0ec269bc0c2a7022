// Differential proof that the arena codec (dnswire/arena_codec.hpp) is
// observationally identical to the heap codec it shadows, over large
// seeded corpora:
//
//   heap encode → arena decode → arena encode   == heap encode bytes
//   heap encode → arena decode → materialize()  == heap decode fields
//   view_of(heap Message) → arena encode        == heap encode bytes
//
// The corpus is adversarial on purpose: shared suffixes and mixed-case
// owners (compression pointers with case-folded keys), OPT pseudo-
// records, RawRecords of unmodeled types, empty sections, and every
// header flag randomized. 10k+ cases across independent seeds.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/arena_codec.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "util/rng.hpp"

namespace odns {
namespace {

using dnswire::Message;
using dnswire::Name;
using dnswire::OptRecord;
using dnswire::PtrRecord;
using dnswire::RawRecord;
using dnswire::ResourceRecord;
using dnswire::RrClass;
using dnswire::RrType;
using dnswire::WireArena;

/// Mixed-case labels: exercises the case-folded compression keys (the
/// encoder must emit a pointer for "WWW.Example" against "www.example").
std::string random_label(util::Rng& rng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
  const int len = rng.uniform_int(1, 14);
  std::string s;
  for (int j = 0; j < len; ++j) {
    s.push_back(kAlphabet[rng.uniform(0, sizeof(kAlphabet) - 2)]);
  }
  return s;
}

/// Names drawn from a shared pool with fresh/extend/reuse moves, so the
/// corpus is dense in shared suffixes — the shapes that produce
/// compression pointers (including pointer-to-pointer chains through
/// earlier compressed names).
Name random_name(util::Rng& rng, std::vector<Name>& pool) {
  const double move = rng.uniform_real(0.0, 1.0);
  if (!pool.empty() && move < 0.35) {
    return pool[rng.uniform(0, pool.size() - 1)];  // exact reuse
  }
  std::vector<std::string> labels;
  if (!pool.empty() && move < 0.65) {
    // Extend a pooled name with a fresh prefix: shares its suffix.
    const Name& base = pool[rng.uniform(0, pool.size() - 1)];
    labels.push_back(random_label(rng));
    for (const auto& l : base.labels()) labels.push_back(l);
  } else {
    const int n = rng.uniform_int(1, 4);
    for (int i = 0; i < n; ++i) labels.push_back(random_label(rng));
  }
  auto name = Name::from_labels(labels);
  EXPECT_TRUE(name.has_value());
  if (!name) return Name{};
  if (pool.size() < 12) pool.push_back(*name);
  return *name;
}

std::vector<std::string> random_txt_strings(util::Rng& rng) {
  std::vector<std::string> strings;
  const int count = rng.uniform_int(1, 3);
  for (int i = 0; i < count; ++i) {
    std::size_t len = rng.uniform(0, 48);
    if (rng.chance(0.15)) len = 255;
    if (rng.chance(0.15)) len = 0;
    std::string s;
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.uniform(0, 255)));
    }
    strings.push_back(std::move(s));
  }
  return strings;
}

ResourceRecord random_record(util::Rng& rng, std::vector<Name>& pool) {
  ResourceRecord rr;
  rr.name = random_name(rng, pool);
  rr.ttl = static_cast<std::uint32_t>(rng.uniform(0, 86400));
  switch (rng.uniform_int(0, 7)) {
    case 0:
      rr.type = RrType::a;
      rr.rdata = dnswire::ARecord{
          util::Ipv4{static_cast<std::uint32_t>(rng.uniform(0, 0xffffffff))}};
      break;
    case 1:
      rr.type = RrType::ns;
      rr.rdata = dnswire::NsRecord{random_name(rng, pool)};
      break;
    case 2:
      rr.type = RrType::cname;
      rr.rdata = dnswire::CnameRecord{random_name(rng, pool)};
      break;
    case 3:
      rr.type = RrType::ptr;
      rr.rdata = PtrRecord{random_name(rng, pool)};
      break;
    case 4:
      rr.type = RrType::txt;
      rr.rdata = dnswire::TxtRecord{random_txt_strings(rng)};
      break;
    case 5: {
      rr.type = RrType::soa;
      dnswire::SoaRecord soa;
      soa.mname = random_name(rng, pool);
      soa.rname = random_name(rng, pool);
      soa.serial = static_cast<std::uint32_t>(rng.uniform(0, 1u << 30));
      soa.refresh = static_cast<std::uint32_t>(rng.uniform(0, 7200));
      soa.retry = static_cast<std::uint32_t>(rng.uniform(0, 7200));
      soa.expire = static_cast<std::uint32_t>(rng.uniform(0, 1u << 20));
      soa.minimum = static_cast<std::uint32_t>(rng.uniform(0, 3600));
      rr.rdata = soa;
      break;
    }
    case 6: {
      // Unmodeled type carried as raw rdata bytes.
      rr.type = static_cast<RrType>(rng.uniform_int(200, 250));
      RawRecord raw;
      const std::size_t len = rng.uniform(0, 40);
      for (std::size_t i = 0; i < len; ++i) {
        raw.data.push_back(static_cast<std::uint8_t>(rng.uniform(0, 255)));
      }
      rr.rdata = std::move(raw);
      break;
    }
    default: {
      rr.type = RrType::opt;
      OptRecord opt;
      opt.udp_payload_size =
          static_cast<std::uint16_t>(rng.uniform(512, 4096));
      rr.rdata = opt;
      break;
    }
  }
  return rr;
}

RrType random_qtype(util::Rng& rng) {
  static constexpr RrType kTypes[] = {RrType::a,   RrType::ns, RrType::cname,
                                      RrType::txt, RrType::mx, RrType::any};
  return kTypes[rng.uniform(0, std::size(kTypes) - 1)];
}

Message random_message(util::Rng& rng) {
  std::vector<Name> pool;
  Message msg;
  msg.header.id = static_cast<std::uint16_t>(rng.uniform(0, 0xffff));
  msg.header.qr = rng.chance(0.5);
  msg.header.opcode = static_cast<dnswire::Opcode>(rng.uniform(0, 2));
  msg.header.aa = rng.chance(0.5);
  msg.header.tc = rng.chance(0.2);
  msg.header.rd = rng.chance(0.5);
  msg.header.ra = rng.chance(0.5);
  msg.header.rcode = static_cast<dnswire::Rcode>(rng.uniform(0, 5));
  const int questions = rng.uniform_int(0, 2);
  for (int i = 0; i < questions; ++i) {
    msg.questions.push_back({random_name(rng, pool), random_qtype(rng)});
  }
  const int answers = rng.uniform_int(0, 5);
  for (int i = 0; i < answers; ++i) {
    msg.answers.push_back(random_record(rng, pool));
  }
  const int authorities = rng.uniform_int(0, 2);
  for (int i = 0; i < authorities; ++i) {
    msg.authorities.push_back(random_record(rng, pool));
  }
  const int additionals = rng.uniform_int(0, 2);
  for (int i = 0; i < additionals; ++i) {
    msg.additionals.push_back(random_record(rng, pool));
  }
  return msg;
}

void expect_headers_equal(const dnswire::Header& a, const dnswire::Header& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.qr, b.qr);
  EXPECT_EQ(a.opcode, b.opcode);
  EXPECT_EQ(a.aa, b.aa);
  EXPECT_EQ(a.tc, b.tc);
  EXPECT_EQ(a.rd, b.rd);
  EXPECT_EQ(a.ra, b.ra);
  EXPECT_EQ(a.rcode, b.rcode);
}

/// One corpus element, checked through every cross-codec seam.
void check_case(const Message& msg, int iter) {
  const std::vector<std::uint8_t> heap_wire = dnswire::encode(msg);

  // Arena decode accepts what heap decode accepts...
  WireArena rx;
  auto view = dnswire::decode_into(rx, heap_wire);
  auto heap_decoded = dnswire::decode(heap_wire);
  ASSERT_TRUE(heap_decoded.ok()) << "iteration " << iter;
  ASSERT_TRUE(view.ok()) << "iteration " << iter;

  // ...agrees with it field-by-field...
  const Message mat = dnswire::materialize(view.value());
  expect_headers_equal(mat.header, heap_decoded.value().header);
  EXPECT_EQ(mat.questions, heap_decoded.value().questions) << iter;
  EXPECT_EQ(mat.answers, heap_decoded.value().answers) << iter;
  EXPECT_EQ(mat.authorities, heap_decoded.value().authorities) << iter;
  EXPECT_EQ(mat.additionals, heap_decoded.value().additionals) << iter;

  // ...and re-encodes to the identical bytes, both from the decoded
  // view and from a view over the heap model.
  WireArena tx;
  const auto arena_wire = dnswire::encode_into(tx, view.value());
  ASSERT_EQ(arena_wire.size(), heap_wire.size()) << "iteration " << iter;
  EXPECT_TRUE(std::equal(arena_wire.begin(), arena_wire.end(),
                         heap_wire.begin()))
      << "iteration " << iter;

  WireArena bridge;
  const auto bridged = dnswire::view_of(bridge, msg);
  const auto bridged_wire = dnswire::encode_into(bridge, bridged);
  ASSERT_EQ(bridged_wire.size(), heap_wire.size()) << "iteration " << iter;
  EXPECT_TRUE(std::equal(bridged_wire.begin(), bridged_wire.end(),
                         heap_wire.begin()))
      << "iteration " << iter;
}

TEST(DnswireDifferential, TenThousandSeededCasesAgreeByteForByte) {
  static constexpr std::uint64_t kSeeds[] = {0xC0FFEE, 0xDECAF1, 0x5CA1AB1E,
                                             0xB16B00B5, 0xCAFEF00D};
  for (const auto seed : kSeeds) {
    util::Rng rng(seed);
    for (int iter = 0; iter < 2100; ++iter) {
      const Message msg = random_message(rng);
      check_case(msg, iter);
      if (HasFatalFailure()) {
        FAIL() << "seed " << seed << " iteration " << iter;
      }
    }
  }
}

TEST(DnswireDifferential, CompressionPointerShapesAgree) {
  // Deterministic worst-case pointer shapes: the mirror answer (owner
  // equals the echoed question), pointer chains through earlier
  // answers, and the suffix-key quirk where ["a.b"] and ["a","b"] fold
  // to the same key (the arena encoder must reproduce the heap
  // encoder's first-insert-wins choice, not "fix" it).
  const Name q = *Name::parse("scan.ODNS-study.net");
  Message msg;
  msg.header.id = 0x4242;
  msg.header.qr = true;
  msg.header.aa = true;
  msg.questions.push_back({q, RrType::a});
  msg.answers.push_back(
      ResourceRecord::a(*Name::parse("SCAN.odns-study.NET"),
                        util::Ipv4{10, 0, 0, 1}, 300));
  msg.answers.push_back(ResourceRecord::a(
      *Name::parse("deep.scan.odns-study.net"), util::Ipv4{10, 0, 0, 2}, 300));
  msg.answers.push_back(ResourceRecord::cname(
      *Name::parse("odns-study.net"), *Name::parse("net"), 300));
  msg.authorities.push_back(ResourceRecord::soa(
      *Name::parse("odns-study.net"), *Name::parse("ns1.odns-study.net"), 7,
      300));
  const auto dotted = Name::from_labels({"a.b", "scan.odns-study.net"});
  const auto split = Name::from_labels({"a", "b", "scan", "odns-study", "net"});
  if (dotted && split) {
    msg.additionals.push_back(
        ResourceRecord::a(*dotted, util::Ipv4{10, 0, 0, 3}, 60));
    msg.additionals.push_back(
        ResourceRecord::a(*split, util::Ipv4{10, 0, 0, 4}, 60));
  }
  check_case(msg, /*iter=*/-1);
}

TEST(DnswireDifferential, EmptyAndHeaderOnlyMessagesAgree) {
  Message msg;  // header-only, all sections empty
  check_case(msg, /*iter=*/-2);
  msg.header.qr = true;
  msg.header.rcode = dnswire::Rcode::refused;
  check_case(msg, /*iter=*/-3);
}

TEST(DnswireDifferential, EmptyRdataRecordsAgree) {
  // Zero-length rdata reaches the arena encoder as an empty span with a
  // null data pointer; the encoder must emit RDLENGTH 0 and copy nothing
  // (a memcpy from null is undefined even for zero bytes).
  Message msg;
  msg.header.id = 0x0E0E;
  msg.header.qr = true;
  const Name owner = *Name::parse("empty.odns-study.net");
  msg.questions.push_back({owner, RrType::a});
  msg.answers.push_back(ResourceRecord{owner, static_cast<RrType>(10),
                                       RrClass::in, 60, RawRecord{}});
  msg.additionals.push_back(
      ResourceRecord{Name{}, RrType::opt, RrClass::in, 0, OptRecord{}});
  check_case(msg, /*iter=*/-4);
}

}  // namespace
}  // namespace odns

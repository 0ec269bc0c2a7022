// Pinned behaviour of the DNS codec over large seeded corpora. The
// heap entry points (encode/decode) wrap the arena codec, and every
// seam must agree:
//
//   encode(msg)                              == encode_into(view_of(msg))
//   decode_into(wire) → encode_into          == wire
//   decode(wire) → encode                    == wire
//
// The corpus is adversarial on purpose: shared suffixes and mixed-case
// owners (compression pointers with case-folded keys), OPT pseudo-
// records, RawRecords of unmodeled types, empty sections, and every
// header flag randomized. 10k+ cases across independent seeds. Every
// wire image and every decoded message is folded into a digest pinned
// while a separate heap codec still ran side by side with this one and
// agreed with it on every case.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dnswire/arena.hpp"
#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"
#include "testutil.hpp"
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

/// Length-prefixed labels: "3:www7:example3:com." — unambiguous even
/// when a label carries a literal '.'.
void render_name(std::string& out, const Name& n) {
  for (const auto& l : n.labels()) {
    out += std::to_string(l.size());
    out += ':';
    out += l;
  }
  out += '.';
}

void render_record(std::string& out, const ResourceRecord& rr) {
  render_name(out, rr.name);
  out += ' ' + std::to_string(static_cast<int>(rr.type)) + ' ' +
         std::to_string(static_cast<int>(rr.klass)) + ' ' +
         std::to_string(rr.ttl) + ' ';
  std::visit(
      [&out](const auto& rd) {
        using T = std::decay_t<decltype(rd)>;
        if constexpr (std::is_same_v<T, dnswire::ARecord>) {
          out += std::to_string(rd.addr.value());
        } else if constexpr (std::is_same_v<T, dnswire::NsRecord>) {
          render_name(out, rd.host);
        } else if constexpr (std::is_same_v<T, dnswire::CnameRecord> ||
                             std::is_same_v<T, PtrRecord>) {
          render_name(out, rd.target);
        } else if constexpr (std::is_same_v<T, dnswire::TxtRecord>) {
          for (const auto& s : rd.strings) {
            out += std::to_string(s.size()) + ':' + s;
          }
        } else if constexpr (std::is_same_v<T, dnswire::SoaRecord>) {
          render_name(out, rd.mname);
          render_name(out, rd.rname);
          for (const auto v :
               {rd.serial, rd.refresh, rd.retry, rd.expire, rd.minimum}) {
            out += ' ' + std::to_string(v);
          }
        } else if constexpr (std::is_same_v<T, OptRecord>) {
          out += "opt" + std::to_string(rd.udp_payload_size);
        } else if constexpr (std::is_same_v<T, RawRecord>) {
          for (const auto b : rd.data) out += std::to_string(b) + ',';
        }
      },
      rr.rdata);
  out += '\n';
}

/// Every field of a decoded message as text.
std::string render(const Message& m) {
  const auto& h = m.header;
  std::string out = std::to_string(h.id) + ' ' + std::to_string(h.qr) +
                    std::to_string(static_cast<int>(h.opcode)) +
                    std::to_string(h.aa) + std::to_string(h.tc) +
                    std::to_string(h.rd) + std::to_string(h.ra) +
                    std::to_string(static_cast<int>(h.rcode)) + '\n';
  for (const auto& q : m.questions) {
    render_name(out, q.name);
    out += ' ' + std::to_string(static_cast<int>(q.type)) + ' ' +
           std::to_string(static_cast<int>(q.klass)) + '\n';
  }
  for (const auto* section : {&m.answers, &m.authorities, &m.additionals}) {
    out += "--\n";
    for (const auto& rr : *section) render_record(out, rr);
  }
  return out;
}

/// Running digests of a corpus: its wire images and its decoded
/// messages.
struct CorpusDigest {
  std::uint64_t wire = util::kFnv1aBasis;
  std::uint64_t decoded = util::kFnv1aBasis;

  void add(std::span<const std::uint8_t> bytes, const Message& msg) {
    wire = util::fnv1a64(wire, bytes.size());
    for (const auto b : bytes) wire = util::fnv1a64(wire, b);
    decoded = util::fnv1a64(decoded, test::text_digest(render(msg)));
  }
};

/// One corpus element, checked through every codec seam.
void check_case(const Message& msg, int iter, CorpusDigest& digest) {
  const std::vector<std::uint8_t> wire = dnswire::encode(msg);

  WireArena bridge;
  const auto bridged =
      dnswire::encode_into(bridge, dnswire::view_of(bridge, msg));
  ASSERT_TRUE(std::equal(bridged.begin(), bridged.end(), wire.begin(),
                         wire.end()))
      << "iteration " << iter;

  WireArena rx;
  auto view = dnswire::decode_into(rx, wire);
  ASSERT_TRUE(view.ok()) << "iteration " << iter;
  WireArena tx;
  const auto reencoded = dnswire::encode_into(tx, view.value());
  EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(), wire.begin(),
                         wire.end()))
      << "iteration " << iter;

  auto decoded = dnswire::decode(wire);
  ASSERT_TRUE(decoded.ok()) << "iteration " << iter;
  EXPECT_EQ(dnswire::encode(decoded.value()), wire) << "iteration " << iter;
  digest.add(wire, decoded.value());
}

void expect_digest(const CorpusDigest& d, std::uint64_t wire,
                   std::uint64_t decoded) {
  EXPECT_EQ(d.wire, wire) << std::hex << "wire digest 0x" << d.wire;
  EXPECT_EQ(d.decoded, decoded) << std::hex << "decoded digest 0x"
                                << d.decoded;
}

TEST(DnswireDifferential, TenThousandSeededCasesAgreeByteForByte) {
  static constexpr std::uint64_t kSeeds[] = {0xC0FFEE, 0xDECAF1, 0x5CA1AB1E,
                                             0xB16B00B5, 0xCAFEF00D};
  CorpusDigest digest;
  for (const auto seed : kSeeds) {
    util::Rng rng(seed);
    for (int iter = 0; iter < 2100; ++iter) {
      const Message msg = random_message(rng);
      check_case(msg, iter, digest);
      if (HasFatalFailure()) {
        FAIL() << "seed " << seed << " iteration " << iter;
      }
    }
  }
  expect_digest(digest, 0x77885d8ca1aaac01, 0x489fe01063047ae3);
}

TEST(DnswireDifferential, CompressionPointerShapesAgree) {
  // Deterministic worst-case pointer shapes: the mirror answer (owner
  // equals the echoed question), pointer chains through earlier
  // answers, and a label carrying a literal '.': ["a.b", ...] and
  // ["a","b", ...] print alike but are different names, so neither may
  // be compressed into a pointer at the other.
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
  CorpusDigest digest;
  check_case(msg, /*iter=*/-1, digest);
  const auto decoded = dnswire::decode(dnswire::encode(msg));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().additionals.size(), 2u);
  // Pointers keep the case of their target; the label sequences must
  // round-trip.
  EXPECT_EQ(decoded.value().additionals[0].name, *dotted);
  EXPECT_EQ(decoded.value().additionals[0].name.label_count(), 2u);
  EXPECT_EQ(decoded.value().additionals[1].name, *split);
  EXPECT_EQ(decoded.value().additionals[1].name.label_count(), 5u);
  expect_digest(digest, 0x2dabdb0d1c0e2018, 0x1a98005127cc1c40);
}

TEST(DnswireDifferential, EmptyAndHeaderOnlyMessagesAgree) {
  Message msg;  // header-only, all sections empty
  CorpusDigest digest;
  check_case(msg, /*iter=*/-2, digest);
  msg.header.qr = true;
  msg.header.rcode = dnswire::Rcode::refused;
  check_case(msg, /*iter=*/-3, digest);
  expect_digest(digest, 0x6c0cf92b29e3d9c0, 0x60515cdfb89cc5ec);
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
  CorpusDigest digest;
  check_case(msg, /*iter=*/-4, digest);
  expect_digest(digest, 0x3256731a69286d, 0xc0ae1ceacafdcc06);
}

}  // namespace
}  // namespace odns

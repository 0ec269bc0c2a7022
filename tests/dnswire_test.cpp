#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "dnswire/codec.hpp"
#include "util/rng.hpp"

namespace odns::dnswire {
namespace {

using util::Ipv4;

// ---------------------------------------------------------------------
// Name
// ---------------------------------------------------------------------

TEST(NameTest, ParsePresentation) {
  const auto n = Name::parse("www.Example.COM");
  ASSERT_TRUE(n.has_value());
  EXPECT_EQ(n->label_count(), 3u);
  EXPECT_EQ(n->to_string(), "www.Example.COM");
  EXPECT_EQ(n->canonical(), "www.example.com");
}

TEST(NameTest, RootForms) {
  const auto root = Name::parse(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
  EXPECT_EQ(root->wire_length(), 1u);
}

TEST(NameTest, TrailingDotAccepted) {
  EXPECT_EQ(Name::parse("example.com.")->label_count(), 2u);
}

TEST(NameTest, RejectsEmptyAndOverlongLabels) {
  EXPECT_FALSE(Name::parse("").has_value());
  EXPECT_FALSE(Name::parse("a..b").has_value());
  EXPECT_FALSE(Name::parse(std::string(64, 'x') + ".com").has_value());
  // 63-char labels are fine.
  EXPECT_TRUE(Name::parse(std::string(63, 'x') + ".com").has_value());
}

TEST(NameTest, RejectsOverlongName) {
  std::string long_name;
  for (int i = 0; i < 50; ++i) long_name += "abcde.";
  long_name += "com";  // 50*6+3 = 303 > 255
  EXPECT_FALSE(Name::parse(long_name).has_value());
}

TEST(NameTest, EqualityIsCaseInsensitive) {
  EXPECT_EQ(*Name::parse("WWW.example.Com"), *Name::parse("www.EXAMPLE.com"));
  EXPECT_NE(*Name::parse("a.example.com"), *Name::parse("b.example.com"));
}

TEST(NameTest, SubdomainRelation) {
  const auto zone = *Name::parse("example.com");
  EXPECT_TRUE(Name::parse("example.com")->is_subdomain_of(zone));
  EXPECT_TRUE(Name::parse("a.b.EXAMPLE.com")->is_subdomain_of(zone));
  EXPECT_FALSE(Name::parse("example.org")->is_subdomain_of(zone));
  EXPECT_FALSE(Name::parse("com")->is_subdomain_of(zone));
  EXPECT_TRUE(Name::parse("anything")->is_subdomain_of(Name{}));  // root
}

TEST(NameTest, PrependAndParent) {
  const auto base = *Name::parse("example.com");
  const auto sub = base.prepend("www");
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->to_string(), "www.example.com");
  EXPECT_EQ(sub->parent(), base);
  EXPECT_TRUE(Name{}.parent().is_root());
}

// ---------------------------------------------------------------------
// Codec round-trips
// ---------------------------------------------------------------------

Message sample_query() {
  return make_query(0x1234, *Name::parse("scan.odns-study.net"), RrType::a);
}

TEST(CodecTest, QueryRoundTrip) {
  const auto q = sample_query();
  const auto wire = encode(q);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  const auto& m = decoded.value();
  EXPECT_EQ(m.header.id, 0x1234);
  EXPECT_FALSE(m.header.qr);
  EXPECT_TRUE(m.header.rd);
  ASSERT_EQ(m.questions.size(), 1u);
  EXPECT_EQ(m.questions[0].name.to_string(), "scan.odns-study.net");
  EXPECT_EQ(m.questions[0].type, RrType::a);
}

TEST(CodecTest, ResponseWithTwoARecordsRoundTrip) {
  auto resp = make_response(sample_query());
  const auto name = *Name::parse("scan.odns-study.net");
  resp.header.aa = true;
  resp.answers.push_back(ResourceRecord::a(name, Ipv4{74, 125, 0, 10}, 300));
  resp.answers.push_back(ResourceRecord::a(name, Ipv4{198, 51, 100, 200}, 300));
  const auto wire = encode(resp);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  const auto addrs = decoded.value().answer_addresses();
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0], (Ipv4{74, 125, 0, 10}));
  EXPECT_EQ(addrs[1], (Ipv4{198, 51, 100, 200}));
}

TEST(CodecTest, CompressionShrinksRepeatedNames) {
  auto resp = make_response(sample_query());
  const auto name = *Name::parse("scan.odns-study.net");
  for (int i = 0; i < 4; ++i) {
    resp.answers.push_back(ResourceRecord::a(name, Ipv4{10, 0, 0, 1}, 60));
  }
  const auto wire = encode(resp);
  // Each repeated owner name should cost 2 pointer bytes, not 21.
  const auto uncompressed_estimate = 12 + 25 + 4 * (21 + 14);
  EXPECT_LT(wire.size(), static_cast<std::size_t>(uncompressed_estimate) - 40);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers.size(), 4u);
  EXPECT_EQ(decoded.value().answers[3].name, name);
}

TEST(CodecTest, SoaNegativeResponseRoundTrip) {
  auto resp = make_response(sample_query(), Rcode::nxdomain);
  resp.authorities.push_back(ResourceRecord::soa(
      *Name::parse("odns-study.net"), *Name::parse("odns-study.net"), 7, 300));
  const auto wire = encode(resp);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().authorities.size(), 1u);
  const auto* soa =
      std::get_if<SoaRecord>(&decoded.value().authorities[0].rdata);
  ASSERT_NE(soa, nullptr);
  EXPECT_EQ(soa->serial, 7u);
  EXPECT_EQ(soa->minimum, 300u);
}

TEST(CodecTest, NsCnameTxtPtrRoundTrip) {
  auto resp = make_response(sample_query());
  const auto zone = *Name::parse("odns-study.net");
  resp.authorities.push_back(
      ResourceRecord::ns(zone, *Name::parse("ns1.odns-study.net"), 86400));
  resp.answers.push_back(ResourceRecord::cname(
      *Name::parse("alias.odns-study.net"), *Name::parse("real.odns-study.net"),
      60));
  resp.answers.push_back(
      ResourceRecord::txt(zone, {"hello", "world"}, 30));
  ResourceRecord ptr;
  ptr.name = *Name::parse("1.2.0.192.in-addr.arpa");
  ptr.type = RrType::ptr;
  ptr.ttl = 60;
  ptr.rdata = PtrRecord{*Name::parse("scanner.odns-study.net")};
  resp.answers.push_back(ptr);
  const auto wire = encode(resp);
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  const auto& m = decoded.value();
  EXPECT_EQ(std::get<NsRecord>(m.authorities[0].rdata).host.to_string(),
            "ns1.odns-study.net");
  EXPECT_EQ(std::get<CnameRecord>(m.answers[0].rdata).target.to_string(),
            "real.odns-study.net");
  EXPECT_EQ(std::get<TxtRecord>(m.answers[1].rdata).strings,
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_EQ(std::get<PtrRecord>(m.answers[2].rdata).target.to_string(),
            "scanner.odns-study.net");
}

TEST(CodecTest, OptRecordCarriesUdpSize) {
  auto q = sample_query();
  ResourceRecord opt;
  opt.name = Name{};
  opt.type = RrType::opt;
  opt.rdata = OptRecord{4096};
  q.additionals.push_back(opt);
  auto decoded = decode(encode(q));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().additionals.size(), 1u);
  EXPECT_EQ(std::get<OptRecord>(decoded.value().additionals[0].rdata)
                .udp_payload_size,
            4096);
}

TEST(CodecTest, FlagsRoundTrip) {
  Message m;
  m.header.id = 9;
  m.header.qr = true;
  m.header.aa = true;
  m.header.tc = true;
  m.header.rd = true;
  m.header.ra = true;
  m.header.rcode = Rcode::refused;
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().header.qr);
  EXPECT_TRUE(decoded.value().header.aa);
  EXPECT_TRUE(decoded.value().header.tc);
  EXPECT_TRUE(decoded.value().header.ra);
  EXPECT_EQ(decoded.value().header.rcode, Rcode::refused);
}

// ---------------------------------------------------------------------
// Malformed input hardening
// ---------------------------------------------------------------------

TEST(CodecHardening, TruncatedHeader) {
  const std::vector<std::uint8_t> wire{0x12, 0x34, 0x00};
  EXPECT_FALSE(decode(wire).ok());
}

TEST(CodecHardening, QuestionCountLiesAboutContent) {
  auto wire = encode(sample_query());
  wire[5] = 9;  // qdcount = 9 but only one question present
  EXPECT_FALSE(decode(wire).ok());
}

TEST(CodecHardening, ForwardCompressionPointerRejected) {
  // Header + one question whose name is a pointer to itself.
  std::vector<std::uint8_t> wire(12, 0);
  wire[5] = 1;  // qdcount = 1
  wire.push_back(0xC0);
  wire.push_back(12);  // points at itself
  wire.push_back(0);
  wire.push_back(1);
  wire.push_back(0);
  wire.push_back(1);
  const auto result = decode(wire);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error(), DecodeError::bad_compression_pointer);
}

TEST(CodecHardening, PointerChainsTerminate) {
  // Two names: the first is real, the second points at the first's
  // pointer target repeatedly — decoder must not loop forever.
  auto base = sample_query();
  base.questions.push_back(base.questions[0]);
  auto wire = encode(base);
  EXPECT_TRUE(decode(wire).ok());
}

TEST(CodecHardening, BadARecordLength) {
  auto resp = make_response(sample_query());
  resp.answers.push_back(ResourceRecord::a(
      *Name::parse("scan.odns-study.net"), Ipv4{1, 2, 3, 4}, 60));
  auto wire = encode(resp);
  // Find the rdlength of the A record (last 6 bytes: len(2) + addr(4))
  wire[wire.size() - 5] = 3;  // claim 3-byte rdata
  EXPECT_FALSE(decode(wire).ok());
}

TEST(CodecHardening, EmptyInput) {
  EXPECT_FALSE(decode({}).ok());
}

/// Property: decoding arbitrary bytes never crashes and either fails or
/// produces a message that re-encodes.
class CodecFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzzProperty, RandomBytesNeverCrash) {
  util::Rng rng{GetParam()};
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> wire(rng.uniform(0, 128));
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    auto result = decode(wire);
    if (result.ok()) {
      // Whatever parsed must re-encode without crashing.
      const auto re = encode(result.value());
      EXPECT_FALSE(re.empty());
    }
  }
}

/// Property: corrupting any single byte of a valid message never
/// crashes the decoder.
TEST_P(CodecFuzzProperty, SingleByteCorruptionNeverCrashes) {
  util::Rng rng{GetParam() ^ 0xABCD};
  auto resp = make_response(sample_query());
  const auto name = *Name::parse("scan.odns-study.net");
  resp.answers.push_back(ResourceRecord::a(name, Ipv4{8, 8, 8, 8}, 300));
  resp.answers.push_back(ResourceRecord::a(name, Ipv4{9, 9, 9, 9}, 300));
  const auto wire = encode(resp);
  for (int iter = 0; iter < 300; ++iter) {
    auto mutated = wire;
    const auto pos = rng.uniform(0, mutated.size() - 1);
    mutated[pos] = static_cast<std::uint8_t>(rng.uniform(0, 255));
    (void)decode(mutated);  // must not crash; outcome may be either
  }
}

/// Property: encode∘decode is the identity on randomly generated valid
/// messages.
TEST_P(CodecFuzzProperty, RandomMessageRoundTrip) {
  util::Rng rng{GetParam() ^ 0x5555};
  for (int iter = 0; iter < 100; ++iter) {
    Message m;
    m.header.id = static_cast<std::uint16_t>(rng.uniform(0, 0xFFFF));
    m.header.qr = rng.chance(0.5);
    m.header.rd = rng.chance(0.5);
    m.header.ra = rng.chance(0.5);
    m.header.rcode = rng.chance(0.2) ? Rcode::nxdomain : Rcode::noerror;
    const std::vector<std::string> labels{"scan", "probe", "x1", "cdn"};
    auto random_name = [&]() {
      std::string s;
      const int n = rng.uniform_int(1, 4);
      for (int i = 0; i < n; ++i) {
        if (i) s += '.';
        s += rng.pick(labels);
      }
      return *Name::parse(s);
    };
    m.questions.push_back(
        Question{random_name(), RrType::a, RrClass::in});
    const int answers = rng.uniform_int(0, 5);
    for (int i = 0; i < answers; ++i) {
      m.answers.push_back(ResourceRecord::a(
          random_name(),
          Ipv4{static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFFFF))},
          static_cast<std::uint32_t>(rng.uniform(0, 86400))));
    }
    auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().header.id, m.header.id);
    ASSERT_EQ(decoded.value().answers.size(), m.answers.size());
    for (std::size_t i = 0; i < m.answers.size(); ++i) {
      EXPECT_EQ(decoded.value().answers[i], m.answers[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzProperty,
                         ::testing::Values(1, 2, 3, 17, 99));

// ---------------------------------------------------------------------
// Per-thread arena set
// ---------------------------------------------------------------------

TEST(ArenaLeaseTest, OneLeasePerThread) {
  const ArenaSet* mine = nullptr;
  {
    const ArenaLease outer;
    mine = &outer.set;
    EXPECT_THROW(ArenaLease{}, std::logic_error);
    // Another thread leases its own set meanwhile.
    const ArenaSet* theirs = nullptr;
    std::thread([&theirs] {
      const ArenaLease other;
      theirs = &other.set;
    }).join();
    EXPECT_NE(theirs, mine);
  }
  const ArenaLease again;  // released when `outer` died
  EXPECT_EQ(&again.set, mine);
}

TEST(ArenaLeaseTest, LeaseResetsTheSet) {
  ArenaSet& set = ArenaSet::this_thread();
  const void* first[3] = {};
  {
    const ArenaLease lease;
    first[0] = lease.set.rx.alloc_array<std::uint8_t>(8).data();
    first[1] = lease.set.tx.alloc_array<std::uint8_t>(8).data();
    first[2] = lease.set.scratch.alloc_array<std::uint8_t>(8).data();
  }
  const ArenaLease lease;
  EXPECT_EQ(set.rx.alloc_array<std::uint8_t>(8).data(), first[0]);
  EXPECT_EQ(set.tx.alloc_array<std::uint8_t>(8).data(), first[1]);
  EXPECT_EQ(set.scratch.alloc_array<std::uint8_t>(8).data(), first[2]);
}

TEST(WireArenaTest, OversizedRequestGetsItsOwnChunk) {
  WireArena arena;
  const auto small = arena.alloc_array<std::uint8_t>(16);
  const auto big = arena.alloc_array<std::uint64_t>(1024);  // 8 KiB
  EXPECT_EQ(arena.chunk_count(), 2u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.data()) % 8, 0u);
  big[1023] = 7;  // the whole span is writable (ASan checks the bound)
  // After a reset the same requests land in the same chunks.
  arena.reset();
  EXPECT_EQ(arena.alloc_array<std::uint8_t>(16).data(), small.data());
  EXPECT_EQ(arena.alloc_array<std::uint64_t>(1024).data(), big.data());
  EXPECT_EQ(arena.chunk_count(), 2u);
}

}  // namespace
}  // namespace odns::dnswire

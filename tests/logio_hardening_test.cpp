// Persistence round-trips, offline correlation equivalence, and the
// 0x20 anti-spoofing behaviour.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "scan/correlate.hpp"
#include "scan/log_io.hpp"
#include "testutil.hpp"

namespace odns::scan {
namespace {

using test::MiniWorld;
using util::Duration;
using util::Ipv4;

class LogIoFixture : public ::testing::Test {
 protected:
  MiniWorld world;
  /// The simulator holds the scanner's address, so the fixture owns it
  /// in place and hands out a reference.
  std::unique_ptr<TransactionalScanner> scanner_;

  TransactionalScanner& scan_world() {
    ScanConfig sc;
    sc.qname = world.scan_name;
    scanner_ = std::make_unique<TransactionalScanner>(world.sim,
                                                      world.scanner_host, sc);
    scanner_->start({test::kResolverAddr});
    scanner_->run_to_completion();
    return *scanner_;
  }
};

TEST_F(LogIoFixture, ProbeLogRoundTrip) {
  auto& scanner = scan_world();
  std::stringstream ss;
  write_probes_csv(ss, scanner.probes());
  const auto back = read_probes_csv(ss);
  ASSERT_EQ(back.size(), scanner.probes().size());
  EXPECT_EQ(back[0].target, scanner.probes()[0].target);
  EXPECT_EQ(back[0].src_port, scanner.probes()[0].src_port);
  EXPECT_EQ(back[0].txid, scanner.probes()[0].txid);
  EXPECT_EQ(back[0].sent_at, scanner.probes()[0].sent_at);
}

TEST_F(LogIoFixture, CaptureLogRoundTrip) {
  auto& scanner = scan_world();
  std::stringstream ss;
  write_capture_csv(ss, scanner.capture());
  const auto back = read_capture_csv(ss);
  ASSERT_EQ(back.size(), scanner.capture().size());
  EXPECT_EQ(back[0].src, scanner.capture()[0].src);
  EXPECT_EQ(back[0].answer_addrs, scanner.capture()[0].answer_addrs);
  EXPECT_EQ(back[0].rcode, scanner.capture()[0].rcode);
}

TEST_F(LogIoFixture, OfflineCorrelationMatchesOnline) {
  auto& scanner = scan_world();
  const auto online = scanner.correlate();
  std::stringstream probes_csv;
  std::stringstream capture_csv;
  write_probes_csv(probes_csv, scanner.probes());
  write_capture_csv(capture_csv, scanner.capture());
  ScannerStats offline_stats;
  const auto offline = correlate_capture(read_probes_csv(probes_csv),
                                         read_capture_csv(capture_csv),
                                         Duration::seconds(20), offline_stats);
  ASSERT_EQ(offline.size(), online.size());
  for (std::size_t i = 0; i < online.size(); ++i) {
    EXPECT_EQ(offline[i].answered, online[i].answered);
    EXPECT_EQ(offline[i].response_src, online[i].response_src);
    EXPECT_EQ(offline[i].answer_addrs, online[i].answer_addrs);
  }
}

TEST_F(LogIoFixture, TransactionsRoundTrip) {
  auto& scanner = scan_world();
  const auto txns = scanner.correlate();
  std::stringstream ss;
  write_transactions_csv(ss, txns);
  const auto back = read_transactions_csv(ss);
  ASSERT_EQ(back.size(), txns.size());
  EXPECT_EQ(back[0].answered, txns[0].answered);
  EXPECT_EQ(back[0].response_src, txns[0].response_src);
  EXPECT_EQ(back[0].rtt.count_nanos(), txns[0].rtt.count_nanos());
}

TEST(LogIoHardening, MalformedRowsAreSkipped) {
  std::stringstream ss(
      "target,src_port,txid,sent_at_ns\n"
      "not-an-ip,1,2,3\n"
      "192.0.2.1,1000,42,12345\n"
      "short,row\n");
  const auto probes = read_probes_csv(ss);
  ASSERT_EQ(probes.size(), 1u);
  EXPECT_EQ(probes[0].target, (Ipv4{192, 0, 2, 1}));
}

// ---------------------------------------------------------------------
// DNS 0x20
// ---------------------------------------------------------------------

class Dns0x20Fixture : public ::testing::Test {
 protected:
  MiniWorld world;
};

TEST_F(Dns0x20Fixture, LegitimateResolutionUnaffected) {
  // The MiniWorld resolver has case randomization on by default; the
  // auth hierarchy echoes questions verbatim, so everything resolves.
  const auto host = world.add_access_host(Ipv4{20, 0, 70, 1});
  nodes::StubClient stub(world.sim, host);
  stub.start();
  stub.query(test::kResolverAddr, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub.responses().size(), 1u);
  EXPECT_EQ(stub.responses().front().message.header.rcode,
            dnswire::Rcode::noerror);
  EXPECT_EQ(world.resolver->stats().rejected_0x20, 0u);
}

TEST_F(Dns0x20Fixture, ForgedResponsesWithWrongCaseRejected) {
  // A blind forger sprays responses guessing ports and TXIDs but spells
  // the name in plain lowercase. With case randomization the resolver
  // must reject any that happen to hit a pending tuple.
  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {Ipv4{198, 41, 0, 99}};  // black hole: keeps tasks pending
  rc.upstream_timeout = util::Duration::seconds(30);
  const auto rhost =
      world.sim.net().add_host(test::kResolverAsn, {Ipv4{8, 8, 8, 110}});
  nodes::RecursiveResolver victim(world.sim, rhost, rc, 5);
  victim.start();

  const auto client = world.add_access_host(Ipv4{20, 0, 71, 1});
  nodes::StubClient stub(world.sim, client);
  stub.start();
  stub.query(Ipv4{8, 8, 8, 110}, world.scan_name);
  world.sim.run_until(world.sim.now() + util::Duration::seconds(1));

  // Brute-force the full TXID space against the resolver's first
  // ephemeral port: some forgery necessarily matches the pending
  // (port, txid) tuple, and the 0x20 check must still reject it.
  const auto attacker = world.add_access_host(Ipv4{20, 0, 71, 2});
  auto forged = dnswire::make_response(
      dnswire::make_query(0, world.scan_name, dnswire::RrType::a));
  forged.answers.push_back(dnswire::ResourceRecord::a(
      world.scan_name, Ipv4{6, 6, 6, 6}, 3600));
  for (std::uint32_t txid = 0; txid < 65536; ++txid) {
    forged.header.id = static_cast<std::uint16_t>(txid);
    netsim::SendOptions opts;
    opts.dst = Ipv4{8, 8, 8, 110};
    opts.src_port = 53;
    opts.dst_port = 49152;  // the resolver's first ephemeral port
    opts.payload = dnswire::encode(forged);
    opts.spoof_src = Ipv4{198, 41, 0, 99};
    world.sim.send_udp(attacker, std::move(opts));
  }
  world.sim.run_until(world.sim.now() + util::Duration::seconds(2));

  // Some forgeries matched (port, txid) — all were rejected on case.
  EXPECT_GT(victim.stats().rejected_0x20, 0u);
  // The poisoned record never reached a client.
  EXPECT_TRUE(stub.responses().empty() ||
              stub.responses().front().message.answer_addresses().empty() ||
              stub.responses().front().message.answer_addresses()[0] !=
                  (Ipv4{6, 6, 6, 6}));
}

/// An upstream that echoes the exact case it received but merges the
/// question's first two labels into one ("sCaN.oDns-study", "nEt"):
/// the same dotted text, a different name.
class SplitEchoServer : public netsim::App {
 public:
  SplitEchoServer(netsim::Simulator& sim, netsim::HostId host)
      : sim_(&sim), host_(host) {
    sim.bind_udp(host, 53, this);
  }

  void on_datagram(const netsim::Datagram& dgram) override {
    auto query = dnswire::decode(*dgram.payload);
    if (!query || query.value().questions.size() != 1) return;
    const auto& labels = query.value().questions.front().name.labels();
    if (labels.size() < 2) return;
    std::vector<std::string> merged{labels[0] + "." + labels[1]};
    merged.insert(merged.end(), labels.begin() + 2, labels.end());
    auto resp = dnswire::make_response(query.value());
    resp.questions.front().name = *dnswire::Name::from_labels(merged);
    resp.answers.push_back(dnswire::ResourceRecord::a(
        query.value().questions.front().name, Ipv4{6, 6, 6, 6}, 3600));
    netsim::SendOptions opts;
    opts.dst = dgram.src;
    opts.src_port = 53;
    opts.dst_port = dgram.src_port;
    opts.payload = dnswire::encode(resp);
    sim_->send_udp(host_, std::move(opts));
  }

 private:
  netsim::Simulator* sim_;
  netsim::HostId host_;
};

TEST_F(Dns0x20Fixture, EchoWithRegroupedLabelsRejected) {
  // The echoed question must be the same labels byte for byte, not
  // merely the same dotted text.
  const Ipv4 upstream_addr{198, 41, 0, 98};
  SplitEchoServer upstream(
      world.sim, world.sim.net().add_host(test::kInfraAsn, {upstream_addr}));
  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {upstream_addr};
  rc.upstream_timeout = util::Duration::seconds(1);
  rc.max_retries = 0;
  const auto rhost =
      world.sim.net().add_host(test::kResolverAsn, {Ipv4{8, 8, 8, 112}});
  nodes::RecursiveResolver victim(world.sim, rhost, rc, 5);
  victim.start();

  const auto client = world.add_access_host(Ipv4{20, 0, 73, 1});
  nodes::StubClient stub(world.sim, client);
  stub.start();
  stub.query(Ipv4{8, 8, 8, 112}, world.scan_name);
  world.sim.run();

  EXPECT_EQ(victim.stats().rejected_0x20, 1u);
  ASSERT_EQ(stub.responses().size(), 1u);
  EXPECT_EQ(stub.responses().front().message.header.rcode,
            dnswire::Rcode::servfail);
  EXPECT_TRUE(stub.responses().front().message.answer_addresses().empty());
}

TEST_F(Dns0x20Fixture, DisabledRandomizationAcceptsPlainCase) {
  nodes::ResolverConfig rc;
  rc.open = true;
  rc.root_hints = {test::kRootAddr};
  rc.case_randomization = false;
  const auto rhost =
      world.sim.net().add_host(test::kResolverAsn, {Ipv4{8, 8, 8, 111}});
  nodes::RecursiveResolver plain(world.sim, rhost, rc, 5);
  plain.start();
  const auto client = world.add_access_host(Ipv4{20, 0, 72, 1});
  nodes::StubClient stub(world.sim, client);
  stub.start();
  stub.query(Ipv4{8, 8, 8, 111}, world.scan_name);
  world.sim.run();
  ASSERT_EQ(stub.responses().size(), 1u);
  EXPECT_EQ(stub.responses().front().message.header.rcode,
            dnswire::Rcode::noerror);
}

}  // namespace
}  // namespace odns::scan

// Determinism regression suite for the typed event engine
// (docs/event-engine.md): every event kind executes in the exact
// (time, seq) total order — checked against a stable-sort oracle —
// and a mixed simulator scenario reproduces its pinned golden digests,
// including same-timestamp bursts and pool slot reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <tuple>
#include <vector>

#include "netsim/event_queue.hpp"
#include "netsim/sim.hpp"
#include "netsim/stream.hpp"
#include "testutil.hpp"

namespace odns::netsim {
namespace {

using util::Duration;
using util::Ipv4;
using util::Prefix;
using util::SimTime;

// ---------------------------------------------------------------------
// EventQueue-level contract
// ---------------------------------------------------------------------

/// Records every pooled packet event the queue dispatches.
class RecordingSink : public PacketSink {
 public:
  struct Delivery {
    Ipv4 src, dst;
    HostId host;
    std::vector<std::uint8_t> payload;
  };
  struct Icmp {
    IcmpType type;
    Ipv4 router;
    Asn origin_as;
  };
  void deliver_event(Packet&& pkt, HostId host) override {
    deliveries.push_back(
        Delivery{pkt.src, pkt.dst, host, std::move(pkt.payload)});
  }
  void icmp_event(IcmpType type, Packet&&, Ipv4 router, Asn origin) override {
    icmps.push_back(Icmp{type, router, origin});
  }
  std::vector<Delivery> deliveries;
  std::vector<Icmp> icmps;
};

class CountingTimer : public TimerTarget {
 public:
  void on_timer(std::uint64_t a, std::uint64_t b) override {
    fired.emplace_back(a, b);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fired;
};

TEST(EventEngineTest, FarFutureNamesTheDrainSentinel) {
  EXPECT_EQ(SimTime::far_future().nanos(), std::int64_t{1} << 62);
  EventQueue q;
  test::WordTimer timer;
  q.schedule_timer(SimTime::from_nanos(42), &timer, 1, 0);
  q.run();  // default deadline = far_future(): drain, don't advance past
  EXPECT_EQ(timer.words, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(q.now(), SimTime::from_nanos(42));
}

TEST(EventEngineTest, TypedKindsInterleaveBySequence) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);
  CountingTimer timer;
  test::WordTimer order;

  // Every kind at the same timestamp: execution must follow
  // scheduling order exactly (the seq tie-break).
  const auto at = SimTime::from_nanos(100);
  q.schedule_timer(at, &order, 0, 0);
  q.schedule_timer(at, &timer, 7, 9);
  Packet pkt;
  pkt.src = Ipv4{10, 0, 0, 1};
  pkt.dst = Ipv4{10, 0, 0, 2};
  pkt.payload = {1, 2, 3};
  q.schedule_deliver(at, std::move(pkt), HostId{5});
  Packet off;
  off.src = Ipv4{10, 0, 0, 3};
  q.schedule_icmp(at, IcmpType::ttl_exceeded, std::move(off), Ipv4{9, 9, 9, 9},
                  Asn{42});
  q.schedule_timer(at, &order, 1, 0);

  EXPECT_EQ(q.step_batch(), 5u);
  EXPECT_EQ(order.words, (std::vector<std::uint64_t>{0, 1}));
  ASSERT_EQ(timer.fired.size(), 1u);
  EXPECT_EQ(timer.fired[0], (std::pair<std::uint64_t, std::uint64_t>{7, 9}));
  ASSERT_EQ(sink.deliveries.size(), 1u);
  EXPECT_EQ(sink.deliveries[0].host, HostId{5});
  EXPECT_EQ(sink.deliveries[0].payload, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_EQ(sink.icmps.size(), 1u);
  EXPECT_EQ(sink.icmps[0].router, (Ipv4{9, 9, 9, 9}));
  EXPECT_EQ(sink.icmps[0].origin_as, Asn{42});
  EXPECT_TRUE(q.empty());
}

TEST(EventEngineTest, BatchAbsorbsSameTimestampReschedules) {
  EventQueue q;
  test::WordTimer order;
  // The first handler schedules two more events "in the past" — they
  // clamp to the batch timestamp and must run after everything already
  // pending there, in scheduling order.
  order.then = [&](std::uint64_t word) {
    if (word != 0) return;
    q.schedule_timer(SimTime::from_nanos(10), &order, 2, 0);
    q.schedule_timer(SimTime::from_nanos(50), &order, 3, 0);
  };
  q.schedule_timer(SimTime::from_nanos(50), &order, 0, 0);
  q.schedule_timer(SimTime::from_nanos(50), &order, 1, 0);
  EXPECT_EQ(q.step_batch(), 4u);
  EXPECT_EQ(order.words, (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(q.now(), SimTime::from_nanos(50));
}

TEST(EventEngineTest, PoolSlotsAreRecycled) {
  EventQueue q;
  RecordingSink sink;
  q.bind_sink(&sink);
  constexpr std::size_t kWave = 64;
  std::size_t high_water = 0;
  for (int cycle = 0; cycle < 10; ++cycle) {
    for (std::size_t i = 0; i < kWave; ++i) {
      Packet pkt;
      pkt.dst = Ipv4{10, 0, 0, static_cast<std::uint8_t>(i)};
      q.schedule_deliver(q.now() + Duration::nanos(static_cast<int>(i)),
                         std::move(pkt), HostId{static_cast<HostId>(i)});
    }
    q.run();
    if (cycle == 0) high_water = q.pool_slots();
  }
  // Freed slots are reused wave after wave: the slab never grows past
  // the first wave's high-water mark, and a drained queue has every
  // slot back on the freelist.
  EXPECT_EQ(q.pool_slots(), high_water);
  EXPECT_LE(high_water, kWave);
  EXPECT_EQ(q.free_slots(), q.pool_slots());
  EXPECT_EQ(sink.deliveries.size(), kWave * 10);
}

TEST(EventEngineTest, MixedScheduleFollowsStableTimeSeqOrder) {
  // A mixed schedule with clustered timestamps must execute in the
  // documented total order and leave the clock at the last timestamp.
  auto record = [] {
    EventQueue q;
    RecordingSink sink;
    q.bind_sink(&sink);
    CountingTimer timer;
    test::WordTimer words;
    for (std::uint64_t i = 0; i < 16; ++i) {
      const auto at = SimTime::from_nanos(static_cast<std::int64_t>(
          (i * 37) % 5));  // clustered timestamps force tie-breaks
      if (i % 3 == 0) {
        q.schedule_timer(at, &words, i, 0);
      } else if (i % 3 == 1) {
        q.schedule_timer(at, &timer, i, 0);
      } else {
        Packet pkt;
        pkt.dst = Ipv4{static_cast<std::uint32_t>(i)};
        q.schedule_deliver(at, std::move(pkt), HostId{1});
      }
    }
    q.run();
    std::vector<std::uint64_t> order = words.words;
    for (const auto& [a, b] : timer.fired) order.push_back(a + 1000);
    for (const auto& d : sink.deliveries) order.push_back(d.dst.value() + 2000);
    order.push_back(q.now().nanos());
    order.push_back(q.executed());
    return order;
  };
  // Oracle: the documented total order is a stable sort of the
  // schedule by (time, insertion sequence), split per kind the way
  // record() observes it.
  std::vector<std::pair<std::int64_t, std::uint64_t>> schedule;
  for (std::uint64_t i = 0; i < 16; ++i) {
    schedule.emplace_back(static_cast<std::int64_t>((i * 37) % 5), i);
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::uint64_t> words, timers, deliveries;
  for (const auto& [at, i] : schedule) {
    if (i % 3 == 0) {
      words.push_back(i);
    } else if (i % 3 == 1) {
      timers.push_back(i + 1000);
    } else {
      deliveries.push_back(i + 2000);
    }
  }
  std::vector<std::uint64_t> expected = words;
  expected.insert(expected.end(), timers.begin(), timers.end());
  expected.insert(expected.end(), deliveries.begin(), deliveries.end());
  expected.push_back(static_cast<std::uint64_t>(schedule.back().first));
  expected.push_back(schedule.size());
  EXPECT_EQ(record(), expected);
}

// ---------------------------------------------------------------------
// Simulator-level determinism: pinned scenario digests
// ---------------------------------------------------------------------

struct TraceRecord {
  TapEvent ev;
  std::uint32_t src, dst;
  int ttl;
  std::uint16_t sport, dport;
  auto operator<=>(const TraceRecord&) const = default;
};

class EchoApp : public App {
 public:
  explicit EchoApp(Simulator& sim, HostId host) : sim_(&sim), host_(host) {}
  void on_datagram(const Datagram& dgram) override {
    SendOptions reply;
    reply.dst = dgram.src;
    reply.src_port = dgram.dst_port;
    reply.dst_port = dgram.src_port;
    reply.payload = *dgram.payload;
    sim_->send_udp(host_, std::move(reply));
  }

 private:
  Simulator* sim_;
  HostId host_;
};

class NullApp : public App {
 public:
  void on_datagram(const Datagram&) override {}
};

struct ScenarioResult {
  std::vector<TraceRecord> trace;
  SimCounters counters;
  std::uint64_t canonical_digest = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t handshakes_rejected = 0;
  std::int64_t end_nanos = 0;
};

/// A world exercising every event kind: transparent redirects
/// (re-injection), low-TTL probes (deferred ICMP), same-timestamp
/// bursts, echo replies, stream handshake timers, and loss.
ScenarioResult run_scenario() {
  SimConfig cfg;
  cfg.seed = 99;
  cfg.loss_rate = 0.02;  // exercises the RNG-coupled drop path
  Simulator sim(cfg);
  sim.set_packet_trace_enabled(true);
  auto& net = sim.net();

  auto add_as = [&](Asn asn, int hops, bool sav) {
    AsConfig as;
    as.asn = asn;
    as.internal_hops = hops;
    as.source_address_validation = sav;
    net.add_as(as);
  };
  add_as(1, 1, true);
  add_as(2, 2, true);
  add_as(3, 1, false);  // forwarder AS: SAV-free, as deployed TFs are
  add_as(4, 3, true);
  net.link(1, 2);
  net.link(2, 3);
  net.link(2, 4);
  net.announce(1, Prefix{Ipv4{10, 1, 0, 0}, 16});
  net.announce(3, Prefix{Ipv4{10, 3, 0, 0}, 16});
  net.announce(4, Prefix{Ipv4{10, 4, 0, 0}, 16});

  const HostId scanner = net.add_host(1, {Ipv4{10, 1, 0, 1}});
  const HostId fwd = net.add_host(3, {Ipv4{10, 3, 0, 1}});
  const HostId resolver = net.add_host(4, {Ipv4{10, 4, 0, 1}});
  const HostId server = net.add_host(4, {Ipv4{10, 4, 0, 2}});

  NullApp scanner_app;
  sim.bind_udp_wildcard(scanner, &scanner_app);
  EchoApp resolver_app(sim, resolver);
  sim.bind_udp(resolver, 53, &resolver_app);
  // Transparent forwarder: relays port-53 arrivals to the resolver.
  sim.add_port_redirect(fwd, 53, Ipv4{10, 4, 0, 1});

  ScenarioResult r;
  sim.add_tap([&r](TapEvent ev, const Packet& p) {
    r.trace.push_back(TraceRecord{ev, p.src.value(), p.dst.value(), p.ttl,
                                  p.src_port, p.dst_port});
  });

  // Stream handshakes: one accepted (direct), one timed out (through
  // the forwarder — the §6 property), both driven by typed timers.
  StreamCallbacks client_cbs;
  StreamEndpoint client(sim, scanner, client_cbs);
  StreamCallbacks server_cbs;
  StreamEndpoint dot(sim, server, server_cbs);
  dot.listen(853);
  client.connect(Ipv4{10, 4, 0, 2}, 853);   // direct: completes
  client.connect(Ipv4{10, 3, 0, 1}, 53);    // via TF: must time out

  // Same-timestamp probe bursts, mixed TTLs (some expire mid-path).
  for (int burst = 0; burst < 4; ++burst) {
    for (int i = 0; i < 32; ++i) {
      SendOptions probe;
      probe.dst = (i % 2 == 0) ? Ipv4{10, 3, 0, 1} : Ipv4{10, 4, 0, 1};
      probe.src_port = static_cast<std::uint16_t>(30000 + i);
      probe.dst_port = 53;
      probe.ttl = (i % 5 == 0) ? 2 : 64;  // TTL 2 dies on the path
      probe.payload = {0xAB, static_cast<std::uint8_t>(i)};
      sim.send_udp(scanner, std::move(probe));
    }
    sim.run_for(Duration::millis(5));
  }
  sim.run();
  sim.run_until(sim.now() + Duration::seconds(5));  // fire the timeouts
  sim.run();

  r.counters = sim.counters();
  r.canonical_digest = sim.canonical_trace_digest();
  r.events_executed = sim.events_executed();
  r.handshakes_rejected = client.handshakes_rejected();
  r.end_nanos = sim.now().nanos();
  return r;
}

/// Everything a scenario run observes that does not depend on how a
/// same-instant delivery cohort is dispatched: counters, the canonical
/// (content-sorted) trace digest, events executed, the final clock and
/// the stream handshake outcome.
std::uint64_t scenario_digest(const ScenarioResult& r) {
  std::ostringstream out;
  out << test::render_counters(r.counters) << '\n'
      << r.canonical_digest << ' ' << r.events_executed << ' '
      << r.end_nanos << ' ' << r.handshakes_rejected;
  return test::text_digest(out.str());
}

/// The tap trace in emission order — unlike the canonical digest, this
/// also pins how same-instant events interleave.
std::uint64_t tap_trace_digest(const std::vector<TraceRecord>& trace) {
  std::ostringstream out;
  for (const auto& t : trace) {
    out << static_cast<int>(t.ev) << ' ' << t.src << ' ' << t.dst << ' '
        << t.ttl << ' ' << t.sport << ' ' << t.dport << '\n';
  }
  return test::text_digest(out.str());
}

// Golden digests of run_scenario. kScenarioDigest was pinned while the
// typed engine, the legacy closure engine (both scalar delivery) and
// the batched typed engine all still ran this scenario and agreed on
// it; kScenarioTapTraceDigest is the batched typed engine's tap order.
constexpr std::uint64_t kScenarioDigest = 0xa569056709a1582dull;
constexpr std::uint64_t kScenarioTapTraceDigest = 0x5a7487e5f376ef2bull;

TEST(EventEngineDeterminismTest, ScenarioMatchesPinnedDigests) {
  const ScenarioResult r = run_scenario();
  EXPECT_FALSE(r.trace.empty());
  EXPECT_EQ(scenario_digest(r), kScenarioDigest);
  EXPECT_EQ(tap_trace_digest(r.trace), kScenarioTapTraceDigest);
  EXPECT_EQ(r.handshakes_rejected, 1u);
  // The scenario must actually exercise the interesting paths.
  EXPECT_GT(r.counters.redirected, 0u);
  EXPECT_GT(r.counters.ttl_expired, 0u);
  EXPECT_GT(r.counters.icmp_generated, 0u);
}

TEST(EventEngineDeterminismTest, SameSeedSameTraceOnTypedEngine) {
  const ScenarioResult a = run_scenario();
  const ScenarioResult b = run_scenario();
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

}  // namespace
}  // namespace odns::netsim

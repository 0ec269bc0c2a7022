// censusbench: one census (and, on paper_census, one DNSRoute++
// campaign) per process, measured from outside the library through its
// public entry points. run.py starts this binary once per sample and
// aggregates the JSON line it prints; see README.md.
//
//   censusbench --workload <name> --seed <n> --mode plain
//       set-up sample (TopologyBuilder::build + RegistrySnapshot::derive
//       as their own calls), then core::run_census and
//       core::run_dnsroute, wall-clocked.
//   censusbench --workload <name> --seed <n> --mode traced --spans <file>
//       the same census rebuilt from the public calls run_census makes,
//       with a span around each layer call; the spans are kept in memory
//       and written to <file> at exit.
//
// Prints one JSON object on stdout. Exit 2 on bad arguments or a
// non-Release build.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "classify/analysis.hpp"
#include "classify/classify.hpp"
#include "core/census.hpp"
#include "dnsroute/dnsroute.hpp"
#include "honeypot/lab.hpp"
#include "registry/registry.hpp"
#include "scan/txscanner.hpp"
#include "scan/vantage.hpp"
#include "topo/deployment.hpp"

namespace {

using namespace odns;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workloads --------------------------------------------------------

struct Workload {
  core::CensusConfig cfg;
  bool dnsroute = false;
};

/// The reproduction path: the default CensusConfig the table/figure
/// benches use (one shard, single-vantage scanner, buffered
/// correlation), followed by DNSRoute++ over every transparent
/// forwarder found.
Workload paper_census(std::uint64_t seed) {
  Workload w;
  w.cfg.topology.scale = 0.1;
  w.cfg.topology.seed = seed;
  w.dnsroute = true;
  return w;
}

/// The Internet-scale census shape: bulk ForwarderBank population,
/// eyeball ASes x4, one capture vantage per shard, streaming
/// correlation into CensusAccumulator, no per-probe retention.
core::CensusConfig internet_shape(double scale, std::uint64_t seed,
                                  std::uint32_t shards) {
  core::CensusConfig cfg;
  cfg.topology.scale = scale;
  cfg.topology.seed = seed;
  cfg.topology.sim.seed = seed;
  cfg.topology.bulk_population = true;
  cfg.topology.eyeball_as_multiplier = 4.0;
  cfg.sim_shards = shards;
  cfg.shard_interleaved_targets = true;
  cfg.vantages = shards;
  cfg.streaming_correlation = true;
  cfg.retain_transactions = false;
  cfg.scan_timeout = util::Duration::seconds(2);
  cfg.probes_per_second = 100000;
  cfg.correlate_flush = util::Duration::millis(250);
  return cfg;
}

/// The Internet-scale world shape at half the size on three shards
/// stepped in turn on the calling thread, under 5% loss plus jitter,
/// reordering, duplication and corruption, with two scanner retries.
/// The window barrier, mailboxes, per-shard route caches and the fault
/// plane all run, but no worker threads, so the wall clock measures the
/// simulation and not how a shared host schedules spinning barrier
/// threads. Faulted censuses are shard-count-invariant, so the census
/// equals the one-shard (and the threaded) run's.
Workload internet_census(std::uint64_t seed) {
  Workload w;
  w.cfg = internet_shape(0.05, seed, 3);
  auto& sim = w.cfg.topology.sim;
  sim.shard_threads = false;
  sim.loss_rate = 0.05;
  sim.faults.jitter_rate = 0.3;
  sim.faults.jitter_max = util::Duration::millis(5);
  sim.faults.reorder_rate = 0.15;
  sim.faults.dup_rate = 0.1;
  sim.faults.corrupt_rate = 0.05;
  w.cfg.scan_max_retries = 2;
  w.cfg.scan_retry_backoff = util::Duration::millis(500);
  return w;
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& out) {
  if (name == "paper_census") {
    out = paper_census(seed);
  } else if (name == "internet_census") {
    out = internet_census(seed);
  } else {
    return false;
  }
  return true;
}

topo::TopologyConfig topology_of(const core::CensusConfig& cfg) {
  topo::TopologyConfig topology = cfg.topology;
  if (cfg.sim_shards > 0) topology.sim.shards = cfg.sim_shards;
  return topology;
}

// --- process memory ---------------------------------------------------

/// Resets VmHWM to the current resident set (Linux clear_refs "5").
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5\n"; }

std::uint64_t read_peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

// --- spans --------------------------------------------------------------

/// In-memory span log: name, start, end and parent span, relative to
/// the tracer's construction. Written out once, at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int begin(std::string name) {
    spans_.push_back({std::move(name), now(), 0.0, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now();
    open_ = s.parent;
    return s.end - s.start;
  }
  /// Time spent in a callback that fires many times inside one span,
  /// recorded as a sum rather than one span per call.
  void add_aggregate(std::string name, int parent, double seconds,
                     std::uint64_t calls) {
    aggregates_.push_back({std::move(name), parent, seconds, calls});
  }

  [[nodiscard]] double duration(const std::string& name) const {
    for (const auto& s : spans_) {
      if (s.name == name) return s.end - s.start;
    }
    return 0.0;
  }

  /// Span duration minus the time its child spans and aggregates cover.
  [[nodiscard]] double self_time(std::size_t id) const {
    double covered = 0.0;
    for (const auto& s : spans_) {
      if (s.parent == static_cast<int>(id)) covered += s.end - s.start;
    }
    for (const auto& a : aggregates_) {
      if (a.parent == static_cast<int>(id)) covered += a.seconds;
    }
    return (spans_[id].end - spans_[id].start) - covered;
  }
  [[nodiscard]] double self_time(const std::string& name) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name) return self_time(i);
    }
    return 0.0;
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(9);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n  " : "\n  ") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"start_s\": " << s.start
          << ", \"end_s\": " << s.end << ", \"parent\": " << s.parent
          << ", \"self_s\": " << self_time(i) << "}";
    }
    out << "\n], \"aggregates\": [";
    for (std::size_t i = 0; i < aggregates_.size(); ++i) {
      const Aggregate& a = aggregates_[i];
      out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << a.name
          << "\", \"parent\": " << a.parent << ", \"seconds\": " << a.seconds
          << ", \"calls\": " << a.calls << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Aggregate {
    std::string name;
    int parent = -1;
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  double now() const { return seconds_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
  int open_ = -1;
};

// --- JSON output ----------------------------------------------------------

/// Flat JSON object writer for the one line this binary prints.
class JsonLine {
 public:
  JsonLine() { out_.precision(12); }
  void num(const std::string& key, double v) { sep(key); out_ << v; }
  void uint(const std::string& key, std::uint64_t v) { sep(key); out_ << v; }
  void str(const std::string& key, const std::string& v) {
    sep(key);
    out_ << '"' << v << '"';
  }
  void boolean(const std::string& key, bool v) {
    sep(key);
    out_ << (v ? "true" : "false");
  }
  void nums(const std::string& key, const std::vector<double>& vs) {
    sep(key);
    out_ << '[';
    for (std::size_t i = 0; i < vs.size(); ++i) out_ << (i ? ", " : "") << vs[i];
    out_ << ']';
  }
  void raw(const std::string& key, const std::string& json) {
    sep(key);
    out_ << json;
  }
  std::string finish() { return out_.str() + "}"; }

 private:
  void sep(const std::string& key) {
    out_ << (first_ ? "{" : ", ") << '"' << key << "\": ";
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- shared outputs -------------------------------------------------------

/// What both modes report about the census they produced; run.py checks
/// these against each other and against the pinned seed-2021 hashes.
struct CensusOutputs {
  std::uint64_t hash = 0;
  std::uint64_t hosts = 0;
  std::uint64_t ases = 0;
  std::uint64_t targets = 0;
  classify::Census census;
  std::uint64_t paths = 0;
  std::uint64_t paths_incomplete = 0;
  std::uint64_t tf_targets = 0;  // DNSRoute++ targets (classified TFs)
};

void emit_outputs(JsonLine& j, const CensusOutputs& o) {
  const auto& c = o.census;
  j.str("build_type", CENSUSBENCH_BUILD_TYPE);
  j.str("compiler", CENSUSBENCH_COMPILER);
  j.str("census_hash", hex64(o.hash));
  j.uint("hosts", o.hosts);
  j.uint("ases", o.ases);
  j.uint("targets", o.targets);
  j.uint("rr", c.rr);
  j.uint("rf", c.rf);
  j.uint("tf", c.tf);
  j.uint("invalid", c.invalid);
  j.uint("unresponsive", c.unresponsive);
  const std::uint64_t probed =
      c.rr + c.rf + c.tf + c.invalid + c.unresponsive;
  j.num("coverage", probed == 0 ? 1.0
                                : static_cast<double>(probed - c.unresponsive) /
                                      static_cast<double>(probed));
  j.uint("tf_targets", o.tf_targets);
  j.uint("paths", o.paths);
  j.uint("paths_incomplete", o.paths_incomplete);
}

void fill_outputs(CensusOutputs& o, const topo::Deployment& world,
                  std::uint64_t targets, classify::Census census) {
  o.hash = classify::census_fingerprint(census);
  o.hosts = world.ground_truth().size();
  o.ases = world.asn_country_.size();
  o.targets = targets;
  o.census = std::move(census);
}

std::uint64_t count_tf(const std::vector<classify::Classified>& classified) {
  return static_cast<std::uint64_t>(std::count_if(
      classified.begin(), classified.end(), [](const auto& item) {
        return item.klass == classify::Klass::transparent_forwarder;
      }));
}

void count_paths(CensusOutputs& o,
                 const std::vector<dnsroute::TracePath>& paths) {
  o.paths = paths.size();
  o.paths_incomplete = static_cast<std::uint64_t>(std::count_if(
      paths.begin(), paths.end(), [](const auto& p) { return !p.complete(); }));
}

// --- plain mode -------------------------------------------------------------

/// Set-up is a fraction of a second, so each process samples it a few
/// times.
constexpr int kSetupSamples = 5;

int run_plain(const Workload& w) {
  JsonLine j;
  j.str("mode", "plain");

  // Set-up samples: the world build and registry derivation run_census
  // begins with, timed as their own calls on worlds that are then
  // dropped.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    auto world = topo::TopologyBuilder::build(topology_of(w.cfg));
    auto registry = registry::RegistrySnapshot::derive(*world, w.cfg.registry);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  j.nums("setup_s", setup_s);
  reset_peak_rss();

  const auto t0 = Clock::now();
  core::CensusResult result = core::run_census(w.cfg);
  const auto t1 = Clock::now();
  j.num("census_s", seconds_between(t0, t1));

  CensusOutputs out;
  out.tf_targets = count_tf(result.classified);
  if (w.dnsroute) {
    const auto t2 = Clock::now();
    core::DnsrouteResult routes = core::run_dnsroute(result);
    const auto t3 = Clock::now();
    j.num("dnsroute_s", seconds_between(t2, t3));
    count_paths(out, routes.paths);
  } else {
    j.num("dnsroute_s", 0.0);
  }
  j.num("peak_rss_mb", static_cast<double>(read_peak_rss_kb()) / 1024.0);
  j.num("report_coverage", result.degradation.coverage());
  fill_outputs(out, *result.world, result.world->scan_targets().size(),
               std::move(result.census));
  emit_outputs(j, out);
  std::cout << j.finish() << std::endl;
  // The world is hundreds of MB of small objects; the process ends
  // here, so skip tearing it down.
  std::quick_exit(0);
}

// --- traced mode ------------------------------------------------------------

/// Per-layer numbers of one traced run, read at the layer boundaries.
struct LayerReadout {
  scan::ScannerStats scan;
  scan::VantageSet::StreamStats stream;
  netsim::SimCounters net;
  netsim::RouteCacheStats routes;
  std::uint32_t shards = 1;
  double busy_max = 0.0;
  double busy_sum = 0.0;
  std::uint64_t mailbox_msgs = 0;
  std::uint64_t mailbox_overflows = 0;
  double sink_s = 0.0;
};

/// Route-cache and shard statistics. On one shard the sharded runtime
/// is idle and its per-shard stats read zero: the route cache is the
/// network's own, and the shard was busy for the whole event loop.
void read_shards(const netsim::Simulator& sim, double run_s,
                 LayerReadout& r) {
  r.shards = sim.shard_count();
  if (r.shards == 1) {
    r.routes = sim.net().route_cache_stats();
    r.busy_max = run_s;
    r.busy_sum = run_s;
    return;
  }
  for (std::uint32_t s = 0; s < r.shards; ++s) {
    const auto& stats = sim.shard_stats(s);
    r.busy_max = std::max(r.busy_max, stats.busy_seconds);
    r.busy_sum += stats.busy_seconds;
    r.mailbox_msgs += stats.mailbox_in;
    r.mailbox_overflows += stats.mailbox_overflows;
    const auto& rc = sim.shard_route_cache_stats(s);
    r.routes.hits += rc.hits;
    r.routes.misses += rc.misses;
  }
}

/// core::run_census, rebuilt from the public calls it makes, with a span
/// around each layer call. Produces the identical census. Covers the two
/// shapes the workloads use: the single-vantage buffered census and the
/// multi-vantage streaming census without per-probe retention.
core::CensusResult traced_census(const core::CensusConfig& cfg, SpanLog& log,
                                 LayerReadout& r) {
  core::CensusResult result;
  const int root = log.begin("census");

  int span = log.begin("topo.build");
  result.world = topo::TopologyBuilder::build(topology_of(cfg));
  log.end(span);

  span = log.begin("registry.derive");
  result.registry =
      registry::RegistrySnapshot::derive(*result.world, cfg.registry);
  log.end(span);

  auto& sim = result.world->sim();
  span = log.begin("scan.start");
  const std::vector<util::Ipv4> targets = result.world->scan_targets();
  if (sim.shard_count() > 1) {
    // Serving-cost partition weights (weighted_partition and
    // serving_cost_weights are on by default): a forwarder counts double.
    std::vector<std::uint64_t> weights(netsim::Simulator::kVirtualShards, 0);
    for (const auto& gt : result.world->ground_truth()) {
      const std::uint64_t cost =
          gt.kind == topo::OdnsKind::recursive_resolver ? 1 : 2;
      weights[sim.virtual_shard_of(gt.addr)] += cost;
    }
    sim.set_partition_load_hints(std::move(weights));
  }
  scan::ScanConfig sc;
  sc.qname = result.world->scan_name();
  sc.timeout = cfg.scan_timeout;
  sc.probes_per_second = cfg.probes_per_second;
  sc.shard_interleave = cfg.shard_interleaved_targets;
  sc.max_retries = cfg.scan_max_retries;
  sc.backoff_base = cfg.scan_retry_backoff;
  classify::ClassifyConfig cc;
  cc.control_addr = result.world->control_addr();
  cc.strict_two_records = cfg.strict_validation;
  if (cfg.vantages > 0) {
    auto members =
        honeypot::attach_capture_vantages(*result.world, cfg.vantages);
    result.vantage_set = std::make_unique<scan::VantageSet>(
        sim, sc, result.world->scanner_addr(), std::move(members));
    result.vantage_set->start(targets);
  } else {
    result.scanner = std::make_unique<scan::TransactionalScanner>(
        sim, result.world->scanner_host(), sc);
    result.scanner->start(targets);
  }
  log.end(span);

  if (cfg.streaming_correlation) {
    // Streaming: classification runs inside the event loop's flush
    // barriers, so the sink is timed per call and summed.
    classify::CensusAccumulator acc(result.registry);
    double sink_s = 0.0;
    std::uint64_t sink_calls = 0;
    span = log.begin("scan.run");
    result.stream_stats = result.vantage_set->run_and_correlate_streaming(
        cfg.correlate_flush, [&](std::size_t, scan::Transaction&& txn) {
          const auto t0 = Clock::now();
          classify::Classified item;
          item.klass = classify::classify_one(txn, cc);
          item.txn = std::move(txn);
          acc.add(item);
          sink_s += seconds_between(t0, Clock::now());
          ++sink_calls;
        });
    const double run_wall = log.end(span);
    log.add_aggregate("classify.sink", span, sink_s, sink_calls);
    r.sink_s = sink_s;
    span = log.begin("classify.analyze");
    result.census = acc.finish();
    log.end(span);
    read_shards(sim, run_wall - sink_s, r);
    r.scan = result.vantage_set->stats();
  } else {
    span = log.begin("scan.run");
    result.scanner->run_to_completion();
    read_shards(sim, log.end(span), r);
    span = log.begin("scan.correlate");
    result.transactions = result.scanner->correlate();
    log.end(span);
    span = log.begin("classify.classify");
    result.classified = classify::classify_all(result.transactions, cc);
    log.end(span);
    span = log.begin("classify.analyze");
    result.census = classify::analyze(result.classified, result.registry);
    log.end(span);
    r.scan = result.scanner->stats();
  }
  r.stream = result.stream_stats;
  r.net = sim.counters();
  log.end(root);
  return result;
}

/// core::run_dnsroute, rebuilt from its public calls with spans.
std::vector<dnsroute::TracePath> traced_dnsroute(core::CensusResult& result,
                                                 SpanLog& log,
                                                 std::uint64_t& packets) {
  const int root = log.begin("dnsroute");
  std::vector<util::Ipv4> targets;
  for (const auto& item : result.classified) {
    if (item.klass == classify::Klass::transparent_forwarder) {
      targets.push_back(item.txn.target);
    }
  }
  dnsroute::DnsrouteConfig rc;
  rc.qname = result.world->scan_name();
  auto& sim = result.world->sim();
  const std::uint64_t sent_before = sim.counters().sent;
  int span = log.begin("dnsroute.trace");
  std::vector<dnsroute::TracePath> paths;
  {
    sim.clear_vantage_capture();
    const netsim::HostId host = result.world->scanner_host();
    dnsroute::DnsroutePlusPlus tracer(sim, host, rc);
    paths = tracer.run(targets);
    // Hand the scanner host's socket and ICMP sink back before the
    // tracer goes out of scope.
    sim.set_icmp_handler(host, {});
    sim.bind_udp_wildcard(host, result.scanner.get());
  }
  log.end(span);
  packets = sim.counters().sent - sent_before;
  span = log.begin("dnsroute.analyze");
  [[maybe_unused]] const auto samples =
      dnsroute::path_length_samples(paths, result.registry);
  [[maybe_unused]] const auto relationships =
      dnsroute::infer_relationships(paths, result.registry);
  log.end(span);
  log.end(root);
  return paths;
}

int run_traced(const Workload& w, const std::string& spans_path) {
  SpanLog log;
  LayerReadout r;
  core::CensusResult result = traced_census(w.cfg, log, r);

  CensusOutputs out;
  out.tf_targets = count_tf(result.classified);
  std::uint64_t dnsroute_packets = 0;
  if (w.dnsroute) {
    count_paths(out, traced_dnsroute(result, log, dnsroute_packets));
  }

  JsonLine j;
  j.str("mode", "traced");
  j.num("census_s", log.duration("census"));

  // Per-layer readout; run.py takes medians over traced samples.
  JsonLine layers;
  const double run_s = log.duration("scan.run") - r.sink_s;
  layers.num("topo.build_s", log.duration("topo.build"));
  layers.num("registry.derive_s", log.duration("registry.derive"));
  layers.num("scan.start_s", log.duration("scan.start"));
  layers.num("scan.run_s", run_s);
  layers.num("scan.correlate_s", log.duration("scan.correlate"));
  layers.num("classify.classify_s",
             w.cfg.streaming_correlation ? r.sink_s
                                         : log.duration("classify.classify"));
  layers.num("classify.analyze_s", log.duration("classify.analyze"));
  layers.num("census.self_s", log.self_time("census"));
  layers.uint("scan.probes_sent", r.scan.probes_sent);
  layers.uint("scan.probes_retried", r.scan.probes_retried);
  layers.uint("scan.responses_duplicate", r.scan.responses_duplicate);
  layers.uint("scan.responses_corrupt", r.scan.responses_corrupt);
  layers.uint("scan.responses_late", r.scan.responses_late);
  layers.uint("scan.peak_pending_probes", r.stream.peak_pending_probes);
  layers.uint("scan.flushes", r.stream.flushes);
  layers.uint("netsim.packets_sent", r.net.sent);
  layers.num("netsim.host_ns_per_packet",
             r.net.sent == 0 ? 0.0
                             : run_s * 1e9 / static_cast<double>(r.net.sent));
  layers.uint("netsim.route_cache_hits", r.routes.hits);
  layers.uint("netsim.route_cache_misses", r.routes.misses);
  const std::uint64_t lookups = r.routes.hits + r.routes.misses;
  layers.num("netsim.route_cache_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(r.routes.hits) /
                                static_cast<double>(lookups));
  layers.uint("netsim.shards", r.shards);
  layers.num("netsim.shard_busy_max_s", r.busy_max);
  layers.num("netsim.shard_busy_sum_s", r.busy_sum);
  // Event-loop time outside the shards' window work; the workloads step
  // their shards in turn on one thread, so the shards' busy times add.
  layers.num("netsim.sync_s", run_s - r.busy_sum);
  layers.num("netsim.shard_imbalance",
             r.busy_sum <= 0.0 ? 1.0
                               : r.busy_max * r.shards / r.busy_sum);
  layers.uint("netsim.mailbox_msgs", r.mailbox_msgs);
  layers.uint("netsim.mailbox_overflows", r.mailbox_overflows);
  layers.uint("netsim.fault_dropped_loss", r.net.dropped_loss);
  layers.uint("netsim.fault_dropped_outage", r.net.dropped_outage);
  layers.uint("netsim.fault_jittered", r.net.jittered);
  layers.uint("netsim.fault_reordered", r.net.reordered);
  layers.uint("netsim.fault_duplicated", r.net.duplicated);
  layers.uint("netsim.fault_corrupted", r.net.corrupted);
  layers.num("dnsroute.trace_s", log.duration("dnsroute.trace"));
  layers.num("dnsroute.analyze_s", log.duration("dnsroute.analyze"));
  layers.uint("dnsroute.packets_sent", dnsroute_packets);
  j.raw("layers", layers.finish());

  fill_outputs(out, *result.world, result.world->scan_targets().size(),
               std::move(result.census));
  emit_outputs(j, out);
  const bool written = log.write(spans_path);
  j.boolean("spans_written", written);
  std::cout << j.finish() << std::endl;
  std::quick_exit(written ? 0 : 1);
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload paper_census|internet_census"
               " [--seed N] [--mode plain|traced] [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "plain";
  std::string spans_path;
  std::uint64_t seed = 2021;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage(argv[0]);
    } else if (arg == "--mode") {
      mode = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return usage(argv[0]);
    }
  }
#ifndef NDEBUG
  std::cerr << "censusbench: assertions are enabled; refusing to measure\n";
  return 2;
#endif
  if (std::string(CENSUSBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "censusbench: built as '" << CENSUSBENCH_BUILD_TYPE
              << "', not Release; refusing to measure\n";
    return 2;
  }
  Workload w;
  if (!make_workload(workload, seed, w)) return usage(argv[0]);
  if (mode == "plain") return run_plain(w);
  if (mode == "traced" && !spans_path.empty()) return run_traced(w, spans_path);
  return usage(argv[0]);
}

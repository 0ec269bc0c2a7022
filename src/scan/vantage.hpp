#pragma once
// Multi-vantage census measurement: a VantageSet of per-shard capture
// hosts executing slices of one global probe plan (plan.hpp). Each
// member is a probe sender (capture_vantage.hpp) with a shard-local
// pacer and capture buffer; correlation consumes the members' buffers
// in the deterministic (time, vantage, seq) merge order.
//
// The point (the paper's central methodological result): ODNS
// visibility is vantage-dependent, and a single-vantage scanner is
// also the structural scale bottleneck of the sharded simulator —
// every response funnels into one shard. The VantageSet splits both:
// probes for a target are paced and injected on the shard that owns
// the target, and responses are captured by the vantage member pinned
// to the shard that emitted them (Simulator::set_vantage_capture), so
// the capture plane needs no cross-shard traffic at all.
//
// Determinism contract: every probe spoofs the shared capture address
// and follows the plan's global (time, port, txid) schedule, and the
// vantage members' ASes mirror the scanner AS's attachment
// (honeypot::attach_capture_vantages) — so counters, the canonical
// packet trace, transactions, and the downstream classify::Census are
// byte-identical to the classic single-vantage single-threaded run,
// for any shard count and any vantage count. See "Multi-vantage
// census" in docs/architecture.md.

#include <functional>
#include <memory>
#include <vector>

#include "netsim/sim.hpp"
#include "scan/capture_vantage.hpp"
#include "scan/plan.hpp"
#include "scan/types.hpp"

namespace odns::scan {

class StreamingCorrelator;

class VantageSet {
 public:
  /// Registers `member_hosts` as the simulator's capture set for
  /// `capture_addr` (each member's AS must be SAV-free and mirror the
  /// capture host's AS attachment — use
  /// honeypot::attach_capture_vantages) and binds a capture socket +
  /// ICMP sink on every member.
  VantageSet(netsim::Simulator& sim, ScanConfig cfg, util::Ipv4 capture_addr,
             std::vector<netsim::HostId> member_hosts);
  /// Unregisters the capture set.
  ~VantageSet();
  VantageSet(const VantageSet&) = delete;
  VantageSet& operator=(const VantageSet&) = delete;

  /// Builds the global plan and hands every probe to the vantage
  /// member owning the probed target's shard; each member paces its
  /// slice with one pending timer on its own shard. Call between runs
  /// (all shard clocks synchronized), then run_to_completion(). A
  /// later start() continues the (port, TXID) sequence and appends to
  /// the probe table. Throws std::logic_error while a previous plan is
  /// still pacing.
  void start(const std::vector<util::Ipv4>& targets);

  /// Runs the simulator until every probe is sent and the timeout
  /// window after the last probe has elapsed (same drain protocol as
  /// TransactionalScanner::run_to_completion).
  void run_to_completion();

  /// Buffered correlation: drains every member's capture buffer into
  /// one StreamingCorrelator in (time, vantage, seq) order and joins it
  /// with the global probe table. Unanswered probes are attributed to
  /// the vantage that sent them. The member buffers are empty
  /// afterwards (capture_of() reads nothing).
  [[nodiscard]] std::vector<Transaction> correlate();

  /// Receives each finalized transaction during streaming correlation,
  /// in probe order (see StreamingCorrelator::Sink).
  using TxnSink = std::function<void(std::size_t, Transaction&&)>;

  /// Memory-bound evidence of one streaming run: high-water marks of
  /// the correlator window and the per-member capture buffers — both
  /// bounded by the flush interval and the timeout window, never by
  /// the run length (the scale test's audit surface).
  struct StreamStats {
    std::size_t flushes = 0;
    std::size_t peak_pending_probes = 0;
    std::size_t peak_buffered_records = 0;
    bool dense_lookup = false;
  };

  /// Streaming replacement for run_to_completion() + correlate(): runs
  /// the simulator in `flush_interval` windows and, at each window
  /// barrier, drains the members' capture prefixes (records at or
  /// before the watermark) into a StreamingCorrelator, emitting
  /// finalized transactions to `sink` as their timeout windows close.
  /// Executes the identical event order as the buffered protocol —
  /// transactions, statistics, counters, and traces are byte-identical
  /// — while holding only the in-flight window in memory.
  StreamStats run_and_correlate_streaming(util::Duration flush_interval,
                                          const TxnSink& sink);

  /// Global probe table, in plan order (invariant across shard and
  /// vantage counts).
  [[nodiscard]] const std::vector<SentProbe>& probes() const {
    return probes_;
  }
  /// One member's local capture buffer (records not yet correlated).
  [[nodiscard]] const std::vector<RawResponse>& capture_of(
      std::size_t vantage) const {
    return members_[vantage]->capture();
  }
  /// Aggregated statistics (field-wise sum over members + correlation).
  [[nodiscard]] ScannerStats stats() const;
  [[nodiscard]] std::size_t vantage_count() const { return members_.size(); }
  [[nodiscard]] const VantagePlan& plan() const { return plan_; }
  [[nodiscard]] util::SimTime last_send_at() const { return last_send_at_; }

 private:
  /// Merges and consumes every member-capture record at or before
  /// `cutoff` (a time-ordered prefix of each buffer), then compacts
  /// the consumed prefixes.
  void flush_capture(util::SimTime cutoff, StreamingCorrelator& corr,
                     StreamStats& st);

  netsim::Simulator* sim_;
  ScanConfig cfg_;
  util::Ipv4 capture_addr_;
  VantagePlan plan_;
  std::vector<SentProbe> probes_;
  /// Member index that paces probe i (an execution detail: depends on
  /// the shard count through the target's owning shard).
  std::vector<std::uint32_t> sender_;
  std::vector<std::unique_ptr<CaptureVantage>> members_;
  ScannerStats correlate_stats_;
  util::SimTime last_send_at_;
};

}  // namespace odns::scan

#pragma once
// The global probe plan: pacing order (with the optional virtual-shard
// interleave), the (port, TXID) tuple sequence, and absolute send
// offsets — computed up front, before any packet moves. The plan is
// the shard-count- and vantage-count-invariant half of a scan: every
// vantage executes its slice of the same plan, so the probe table,
// every packet's content, and every send instant are identical whether
// one host or a per-shard fleet performs the measurement.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "netsim/sim.hpp"
#include "scan/types.hpp"

namespace odns::scan {

/// One planned probe. `at` is the offset from scan start.
struct PlannedProbe {
  util::Ipv4 target;
  util::Duration at = util::Duration::nanos(0);
  std::uint16_t src_port = 0;
  std::uint16_t txid = 0;
  /// Probe-table index this entry answers for: its own index for
  /// original sends, the original's index for retransmissions (which
  /// reuse the original's tuple — the dedup key).
  std::uint32_t origin = 0;
  /// 0 = original send; k = k-th retransmission (ScanConfig::
  /// max_retries), offset backoff_base * (2^k - 1) after the original.
  std::uint8_t attempt = 0;
};

/// The paper's unique-tuple allocator: walks the ephemeral port range,
/// moving to a fresh TXID plane when the port space wraps, so every
/// in-flight probe owns a distinct (port, TXID) pair.
class TupleSequencer {
 public:
  TupleSequencer(std::uint16_t port_base, std::uint16_t port_limit)
      : port_base_(port_base), port_limit_(port_limit),
        next_port_(port_base) {}

  std::pair<std::uint16_t, std::uint16_t> next() {
    const std::uint16_t port = next_port_;
    if (next_port_ >= port_limit_) {
      next_port_ = port_base_;
      ++next_txid_;  // port space wrapped: move to a fresh TXID plane
      if (next_txid_ == 0) next_txid_ = 1;
    } else {
      ++next_port_;
    }
    return {port, next_txid_};
  }

 private:
  std::uint16_t port_base_;
  std::uint16_t port_limit_;
  std::uint16_t next_port_;
  std::uint16_t next_txid_ = 1;
};

/// Round-robin interleave of `targets` over the simulator's virtual
/// shards (see ScanConfig::shard_interleave). Grouping is stable and
/// keyed on the shard-count-independent virtual partition, so the
/// result is identical for any real shard count.
[[nodiscard]] std::vector<util::Ipv4> interleave_by_virtual_shard(
    const netsim::Simulator& sim, const std::vector<util::Ipv4>& targets);

class VantagePlan {
 public:
  VantagePlan() = default;

  /// Computes the full plan for `targets` under `cfg`: ordering
  /// (classic or interleaved), tuple assignment in pacing order, paced
  /// send offsets, and — with cfg.max_retries > 0 — the appended
  /// retransmission entries (originals first, so plan index == probe-
  /// table index for every attempt-0 entry). `first_tuple` skips that
  /// many tuples of the sequence: a sender's later plan continues
  /// where its earlier plans stopped, so no two probes in its table
  /// share a (port, TXID). Throws std::invalid_argument when
  /// cfg.probes_per_second is 0.
  [[nodiscard]] static VantagePlan build(const netsim::Simulator& sim,
                                         const ScanConfig& cfg,
                                         const std::vector<util::Ipv4>& targets,
                                         std::size_t first_tuple = 0);

  [[nodiscard]] const std::vector<PlannedProbe>& probes() const {
    return probes_;
  }
  [[nodiscard]] util::Duration pacing_gap() const { return gap_; }
  /// One pacing gap past the last planned send (retries included) —
  /// the classic scanner's pre-run estimate of the send horizon.
  [[nodiscard]] util::Duration span() const { return span_; }
  /// Offset of the last planned send itself (start for an empty plan).
  [[nodiscard]] util::Duration last_at() const { return last_at_; }
  /// Number of attempt-0 entries (the probe-table prefix of probes()).
  [[nodiscard]] std::size_t original_count() const { return originals_; }

  /// Appends the probe table of a scan started at `t0`: one SentProbe
  /// per attempt-0 entry, sent at t0 + at (sends happen at exactly
  /// their planned instants). Retransmissions share their original's
  /// tuple and target, so they add sends but no rows.
  void append_probe_table(util::SimTime t0,
                          std::vector<SentProbe>& out) const;

 private:
  std::vector<PlannedProbe> probes_;
  util::Duration gap_ = util::Duration::nanos(0);
  util::Duration span_ = util::Duration::nanos(0);
  util::Duration last_at_ = util::Duration::nanos(0);
  std::size_t originals_ = 0;
};

/// Lazy pacing of one sender's slice of a plan. The plan is computed
/// up front, but its sends are paced one timer at a time: the sender
/// keeps a single pending timer, and each firing sends every probe due
/// at that instant and arms the next instant. So the event queue holds
/// one timer per sender, not one per planned probe.
class PlanPacer {
 public:
  /// Takes the sender's plan indices (in plan order) and stable-sorts
  /// them by send offset, so probes due at one instant go out in plan
  /// order.
  void assign(const VantagePlan& plan, std::vector<std::uint32_t> indices);

  /// True while some assigned probe is unsent.
  [[nodiscard]] bool pacing() const { return next_ < order_.size(); }
  /// Offset of the next unsent probe. Pre: pacing().
  [[nodiscard]] util::Duration next_at(const VantagePlan& plan) const {
    return plan.probes()[order_[next_]].at;
  }

  /// Calls send(plan index) for every probe due at the next offset, in
  /// order, and returns the delay to the offset after it (nullopt once
  /// the slice is done). Pre: pacing().
  template <typename Send>
  std::optional<util::Duration> fire(const VantagePlan& plan, Send&& send) {
    const util::Duration at = next_at(plan);
    do {
      send(order_[next_++]);
    } while (pacing() && next_at(plan) == at);
    if (!pacing()) return std::nullopt;
    return next_at(plan) - at;
  }

 private:
  std::vector<std::uint32_t> order_;
  std::size_t next_ = 0;
};

}  // namespace odns::scan

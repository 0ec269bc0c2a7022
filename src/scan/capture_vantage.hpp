#pragma once
// The probe sender of the census scan (§4.1): one host that sends its
// slice of a probe plan (plan.hpp), paced one timer at a time, and
// records every response it receives into its own capture buffer.
// There is one implementation of sending, pacing and recording:
// TransactionalScanner is one sender over the whole plan from its own
// address, and a VantageSet (vantage.hpp) runs one per shard over
// slices of a shared plan, each sending as the shared capture address.

#include <cstdint>
#include <optional>
#include <vector>

#include "netsim/sim.hpp"
#include "scan/plan.hpp"
#include "scan/types.hpp"

namespace odns::scan {

class CaptureVantage : public netsim::App, public netsim::TimerTarget {
 public:
  /// Binds the wildcard socket and the ICMP sink on `host`. `index`
  /// tags every captured record (RawResponse::vantage). With
  /// `spoof_src` set, every probe leaves with that source address.
  CaptureVantage(netsim::Simulator& sim, netsim::HostId host,
                 std::uint32_t index,
                 std::optional<util::Ipv4> spoof_src = std::nullopt);
  /// The simulator holds this object's address (socket binding, ICMP
  /// sink, pacing timer), so it can be neither copied nor moved.
  CaptureVantage(const CaptureVantage&) = delete;
  CaptureVantage& operator=(const CaptureVantage&) = delete;
  CaptureVantage(CaptureVantage&&) = delete;
  CaptureVantage& operator=(CaptureVantage&&) = delete;

  /// Paces `slice` (plan indices, in plan order) of `plan` under `cfg`:
  /// arms the first send instant on the host's own shard, and each
  /// firing sends the probes due then and arms the next. With a static
  /// qname the query is encoded once here and each send patches its
  /// TXID in. `plan` and `cfg` must outlive the pacing. Call outside
  /// the event loop, and only while !pacing().
  void pace(const VantagePlan& plan, const ScanConfig& cfg,
            std::vector<std::uint32_t> slice);

  /// True while some probe of the current slice is unsent.
  [[nodiscard]] bool pacing() const { return pacer_.pacing(); }
  [[nodiscard]] netsim::HostId host() const { return host_; }
  /// Responses recorded so far, in arrival (= time) order.
  [[nodiscard]] const std::vector<RawResponse>& capture() const {
    return capture_;
  }
  [[nodiscard]] const ScannerStats& stats() const { return stats_; }

  /// The capture hook: decodes the datagram into the thread's leased rx
  /// arena and records the ID, rcode and A answers of responses.
  /// Non-responses are ignored; undecodable payloads count as parse errors.
  void on_datagram(const netsim::Datagram& dgram) override;
  /// Probe-pacing timer: sends the probes due now and arms the next
  /// send instant (one timer pending at a time; the words are unused).
  void on_timer(std::uint64_t, std::uint64_t) override;

 protected:
  netsim::Simulator* sim_;
  /// Send and capture counters; an owner adds its correlation
  /// statistics here too.
  ScannerStats stats_;
  /// Time-ordered: the host records in event-execution order.
  std::vector<RawResponse> capture_;

 private:
  /// The streaming flush drains time-ordered capture prefixes.
  friend class VantageSet;

  void send(const PlannedProbe& probe);

  netsim::HostId host_;
  std::uint32_t index_;
  std::optional<util::Ipv4> spoof_src_;
  const VantagePlan* plan_ = nullptr;
  const ScanConfig* cfg_ = nullptr;
  PlanPacer pacer_;
  /// The static-qname query; each send patches its TXID into the ID
  /// bytes (empty when qname_for_target names each target).
  std::vector<std::uint8_t> query_;
};

/// The scan drain protocol: runs `sim` until every planned probe is
/// sent, then until the timeout window after the last send (plus
/// cfg.drain_settle) has elapsed, then drains what is left.
void run_scan_to_completion(netsim::Simulator& sim, util::SimTime last_send_at,
                            const ScanConfig& cfg);

}  // namespace odns::scan

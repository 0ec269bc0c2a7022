#pragma once
// The paper's measurement core (§4.1): an asynchronous Internet-wide
// scanner that records the complete DNS transaction — target address,
// client port, transaction ID — and correlates responses to requests
// afterwards. Unique (port, TXID) tuples make the mapping unambiguous
// even when many transparent forwarders relay to the same resolver
// (Fig. 7); IP-based matching cannot do that.
//
// The scanner is the single-vantage assembly of three shared pieces:
// the global probe plan (plan.hpp: ordering, tuples, pacing), the
// capture record hook and the merge-correlator (correlate.hpp). The
// multi-vantage assembly — one capture host per shard executing slices
// of the same plan — lives in vantage.hpp.

#include <cstdint>
#include <vector>

#include "netsim/sim.hpp"
#include "scan/plan.hpp"
#include "scan/types.hpp"

namespace odns::scan {

class TransactionalScanner : public netsim::App, public netsim::TimerTarget {
 public:
  TransactionalScanner(netsim::Simulator& sim, netsim::HostId host,
                       ScanConfig cfg);

  /// Plans probes to every target and arms the first send; each send
  /// instant arms the next. Call sim().run() (or run_to_completion)
  /// afterwards. Throws std::logic_error while a previous plan is
  /// still pacing.
  void start(const std::vector<util::Ipv4>& targets);

  /// Runs the simulator until every probe is sent and the timeout
  /// window after the last probe has elapsed.
  void run_to_completion();

  /// Post-processing: joins the probe log with the capture log on
  /// (client port, TXID) and returns one transaction per probe. The
  /// first in-window response wins; later ones count as duplicates.
  /// Updates the unmatched/duplicate/late statistics.
  [[nodiscard]] std::vector<Transaction> correlate();

  [[nodiscard]] const std::vector<SentProbe>& probes() const { return probes_; }
  [[nodiscard]] const std::vector<RawResponse>& capture() const {
    return capture_;
  }
  [[nodiscard]] const ScannerStats& stats() const { return stats_; }
  [[nodiscard]] util::SimTime last_send_at() const { return last_send_at_; }

  void on_datagram(const netsim::Datagram& dgram) override;
  /// Probe-pacing timer: sends the probes due now and arms the next
  /// send instant (one timer pending at a time; the words are unused).
  void on_timer(std::uint64_t, std::uint64_t) override;

 private:
  void send_planned(const PlannedProbe& probe);

  netsim::Simulator* sim_;
  netsim::HostId host_;
  ScanConfig cfg_;
  VantagePlan plan_;
  PlanPacer pacer_;
  std::vector<SentProbe> probes_;
  std::vector<RawResponse> capture_;
  ScannerStats stats_;
  util::SimTime last_send_at_;
};

}  // namespace odns::scan

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
// probe sender that paces, sends and captures (capture_vantage.hpp —
// here over the whole plan, from the scanner's own address), and the
// (port, TXID) correlator (correlate.hpp). The multi-vantage assembly
// — one sender per shard executing slices of the same plan — lives in
// vantage.hpp.

#include <cstdint>
#include <vector>

#include "netsim/sim.hpp"
#include "scan/capture_vantage.hpp"
#include "scan/plan.hpp"
#include "scan/types.hpp"

namespace odns::scan {

class TransactionalScanner : public CaptureVantage {
 public:
  TransactionalScanner(netsim::Simulator& sim, netsim::HostId host,
                       ScanConfig cfg);

  /// Plans probes to every target and arms the first send; each send
  /// instant arms the next. Call sim().run() (or run_to_completion)
  /// afterwards. A later start() continues the (port, TXID) sequence
  /// and appends to the probe table, so correlate() joins each run's
  /// responses to its own probes. Throws std::logic_error while a
  /// previous plan is still pacing.
  void start(const std::vector<util::Ipv4>& targets);

  /// Runs the simulator until every probe is sent and the timeout
  /// window after the last probe has elapsed.
  void run_to_completion();

  /// Post-processing: joins the probe log with the capture log on
  /// (client port, TXID) and returns one transaction per probe. The
  /// first in-window response wins; later ones count as duplicates.
  /// Updates the unmatched/duplicate/late statistics. The capture log
  /// is left as it was.
  [[nodiscard]] std::vector<Transaction> correlate();

  [[nodiscard]] const std::vector<SentProbe>& probes() const { return probes_; }
  [[nodiscard]] util::SimTime last_send_at() const { return last_send_at_; }

 private:
  ScanConfig cfg_;
  VantagePlan plan_;
  std::vector<SentProbe> probes_;
  util::SimTime last_send_at_;
};

}  // namespace odns::scan

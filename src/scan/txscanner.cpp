#include "scan/txscanner.hpp"

#include <numeric>
#include <stdexcept>

#include "scan/correlate.hpp"

namespace odns::scan {

TransactionalScanner::TransactionalScanner(netsim::Simulator& sim,
                                           netsim::HostId host, ScanConfig cfg)
    : CaptureVantage(sim, host, /*index=*/0), cfg_(std::move(cfg)) {}

void TransactionalScanner::start(const std::vector<util::Ipv4>& targets) {
  if (pacing()) {
    throw std::logic_error(
        "TransactionalScanner::start: the previous plan is still pacing");
  }
  plan_ = VantagePlan::build(*sim_, cfg_, targets, probes_.size());
  const util::SimTime t0 = sim_->now();
  plan_.append_probe_table(t0, probes_);
  std::vector<std::uint32_t> indices(plan_.probes().size());
  std::iota(indices.begin(), indices.end(), 0u);
  pace(plan_, cfg_, std::move(indices));
  last_send_at_ = t0 + plan_.last_at();
}

void TransactionalScanner::run_to_completion() {
  run_scan_to_completion(*sim_, last_send_at_, cfg_);
}

std::vector<Transaction> TransactionalScanner::correlate() {
  return correlate_capture(probes_, capture_, cfg_.timeout, stats_,
                           cfg_.retry_extension());
}

}  // namespace odns::scan

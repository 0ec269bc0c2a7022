#include "scan/correlate.hpp"

#include "scan/stream.hpp"

namespace odns::scan {

std::vector<Transaction> correlate_capture(
    const std::vector<SentProbe>& probes,
    const std::vector<RawResponse>& capture, util::Duration timeout,
    ScannerStats& stats, util::Duration retry_extension) {
  StreamingCorrelator corr(probes, timeout, stats, retry_extension);
  for (const RawResponse& rec : capture) corr.consume(rec);
  std::vector<Transaction> out;
  out.reserve(probes.size());
  corr.finish([&](std::size_t, Transaction&& txn) {
    out.push_back(std::move(txn));
  });
  return out;
}

}  // namespace odns::scan

#pragma once
// Persistence for scan artifacts: the probe log, the raw capture
// (dumpcap-equivalent) and correlated transactions serialize to CSV so
// post-processing can happen offline — mirroring the paper's artifact
// pipeline (dns-scan-server produces captures; dns-measurement-analysis
// consumes them). Persisted logs correlate offline with
// correlate_capture (correlate.hpp), the same join the scanner runs.

#include <iosfwd>
#include <vector>

#include "scan/txscanner.hpp"

namespace odns::scan {

void write_probes_csv(std::ostream& os, const std::vector<SentProbe>& probes);
std::vector<SentProbe> read_probes_csv(std::istream& is);

void write_capture_csv(std::ostream& os,
                       const std::vector<RawResponse>& capture);
std::vector<RawResponse> read_capture_csv(std::istream& is);

void write_transactions_csv(std::ostream& os,
                            const std::vector<Transaction>& txns);
std::vector<Transaction> read_transactions_csv(std::istream& is);

}  // namespace odns::scan

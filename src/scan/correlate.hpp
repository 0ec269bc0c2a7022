#pragma once
// Buffered correlation: joins a whole probe log with a whole capture
// log on the unique (client port, TXID) tuple after the measurement —
// the post-processing half of §4.1, for the single-vantage
// TransactionalScanner and for logs read back from CSV (log_io.hpp).
// It is the streaming correlator (stream.hpp) run with one terminal
// flush: every record consumed, then every probe finalized — so there
// is one join and one set of window rules.

#include <vector>

#include "scan/types.hpp"

namespace odns::scan {

/// Joins `capture` with `probes` on (client port, TXID) and returns
/// one transaction per probe. The first in-window response in capture
/// order wins; later in-window matches count as duplicates, and
/// stragglers past the original window count late — even when a retry
/// already concluded the probe. `retry_extension`
/// (ScanConfig::retry_extension()) widens the accept window for
/// *unanswered* probes only, so answers elicited by retransmissions
/// (same tuple, sent up to that much later) still correlate. Updates
/// the unmatched/duplicate/late statistics in `stats`. `capture` is
/// read, not consumed.
[[nodiscard]] std::vector<Transaction> correlate_capture(
    const std::vector<SentProbe>& probes,
    const std::vector<RawResponse>& capture, util::Duration timeout,
    ScannerStats& stats,
    util::Duration retry_extension = util::Duration::nanos(0));

}  // namespace odns::scan

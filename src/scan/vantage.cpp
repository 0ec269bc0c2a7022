#include "scan/vantage.hpp"

#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "scan/stream.hpp"

namespace odns::scan {

VantageSet::VantageSet(netsim::Simulator& sim, ScanConfig cfg,
                       util::Ipv4 capture_addr,
                       std::vector<netsim::HostId> member_hosts)
    : sim_(&sim), cfg_(std::move(cfg)), capture_addr_(capture_addr) {
  assert(!member_hosts.empty());
  sim_->set_vantage_capture(capture_addr_, member_hosts);
  members_.reserve(member_hosts.size());
  for (std::size_t j = 0; j < member_hosts.size(); ++j) {
    // Every member sends as the shared capture address (the member ASes
    // are SAV-free), so probe content — and with it routing, loss
    // fates, and responder behaviour — is byte-identical to the
    // single-vantage scan.
    members_.push_back(std::make_unique<CaptureVantage>(
        sim, member_hosts[j], static_cast<std::uint32_t>(j), capture_addr_));
  }
}

VantageSet::~VantageSet() { sim_->clear_vantage_capture(); }

void VantageSet::start(const std::vector<util::Ipv4>& targets) {
  for (const auto& m : members_) {
    if (m->pacing()) {
      throw std::logic_error(
          "VantageSet::start: the previous plan is still pacing");
    }
  }
  plan_ = VantagePlan::build(*sim_, cfg_, targets, probes_.size());
  const util::SimTime t0 = sim_->now();
  plan_.append_probe_table(t0, probes_);
  std::unordered_map<netsim::HostId, std::uint32_t> member_of_host;
  for (std::uint32_t j = 0; j < members_.size(); ++j) {
    member_of_host.emplace(members_[j]->host(), j);
  }
  const auto& net = sim_->net();
  sender_.reserve(sender_.size() + plan_.original_count());
  std::vector<std::vector<std::uint32_t>> slices(members_.size());
  for (std::size_t i = 0; i < plan_.probes().size(); ++i) {
    const PlannedProbe& p = plan_.probes()[i];
    // Shard-local pacing: the member pinned to the shard that owns the
    // probed target paces and injects the probe, so the probe leg and
    // its direct response never cross the shard fabric. Targets without
    // a unicast owner (anycast groups) pace from the shard-0 member.
    // Retries share the original's target, hence the same member.
    const netsim::HostId owner_host = net.unicast_owner(p.target);
    const std::uint32_t shard =
        owner_host == netsim::kInvalidHost ? 0 : sim_->shard_of(owner_host);
    const std::uint32_t member =
        member_of_host.at(sim_->vantage_member_for_shard(shard));
    if (p.attempt == 0) sender_.push_back(member);
    slices[member].push_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t j = 0; j < members_.size(); ++j) {
    members_[j]->pace(plan_, cfg_, std::move(slices[j]));
  }
  last_send_at_ = t0 + plan_.last_at();
}

void VantageSet::run_to_completion() {
  run_scan_to_completion(*sim_, last_send_at_, cfg_);
}

ScannerStats VantageSet::stats() const {
  ScannerStats agg = correlate_stats_;
  for (const auto& m : members_) agg += m->stats();
  return agg;
}

std::vector<Transaction> VantageSet::correlate() {
  StreamingCorrelator corr(probes_, cfg_.timeout, correlate_stats_,
                           cfg_.retry_extension());
  StreamStats unused;
  flush_capture(util::SimTime::far_future(), corr, unused);
  std::vector<Transaction> out;
  out.reserve(probes_.size());
  corr.finish([&](std::size_t i, Transaction&& txn) {
    if (!txn.answered) txn.vantage = sender_[i];
    out.push_back(std::move(txn));
  });
  return out;
}

void VantageSet::flush_capture(util::SimTime cutoff, StreamingCorrelator& corr,
                               StreamStats& st) {
  const std::size_t k = members_.size();
  // Windowed k-way merge: the concatenation of per-window merges equals
  // the full (time, vantage, seq) merge, because every record in one
  // flush precedes every record of the next (cutoffs are nondecreasing
  // and the buffers are time-ordered).
  std::vector<std::size_t> pos(k, 0);
  while (true) {
    std::size_t best = k;
    std::int64_t best_at = 0;
    for (std::size_t v = 0; v < k; ++v) {
      const auto& buf = members_[v]->capture();
      if (pos[v] >= buf.size()) continue;
      const std::int64_t at = buf[pos[v]].at.nanos();
      if (at > cutoff.nanos()) continue;  // time-ordered: buffer done
      if (best == k || at < best_at) {
        best = v;
        best_at = at;
      }
    }
    if (best == k) break;
    corr.consume(std::move(members_[best]->capture_[pos[best]]));
    ++pos[best];
  }
  for (std::size_t v = 0; v < k; ++v) {
    auto& buf = members_[v]->capture_;
    st.peak_buffered_records = std::max(st.peak_buffered_records, buf.size());
    buf.erase(buf.begin(),
              buf.begin() + static_cast<std::ptrdiff_t>(pos[v]));
  }
}

VantageSet::StreamStats VantageSet::run_and_correlate_streaming(
    util::Duration flush_interval, const TxnSink& sink) {
  assert(flush_interval > util::Duration::nanos(0));
  StreamingCorrelator corr(probes_, cfg_.timeout, correlate_stats_,
                           cfg_.retry_extension());
  StreamStats st;
  st.dense_lookup = corr.dense_lookup();
  const TxnSink wrapped = [&](std::size_t i, Transaction&& txn) {
    // Same attribution rule as correlate(): unanswered probes belong
    // to the vantage that paced them.
    if (!txn.answered) txn.vantage = sender_[i];
    sink(i, std::move(txn));
  };
  // Same event set and order as run_to_completion(), partitioned into
  // flush windows: all traffic up to the post-timeout horizon, then a
  // final drain for stragglers (which are late by construction).
  const util::SimTime horizon =
      last_send_at_ + cfg_.timeout + cfg_.drain_settle;
  util::SimTime cursor = sim_->now();
  while (cursor < horizon) {
    cursor = std::min(cursor + flush_interval, horizon);
    sim_->run_until(cursor);
    flush_capture(cursor, corr, st);
    corr.advance(cursor, wrapped);
    st.peak_pending_probes =
        std::max(st.peak_pending_probes, corr.pending());
    ++st.flushes;
  }
  sim_->run();
  flush_capture(util::SimTime::far_future(), corr, st);
  corr.finish(wrapped);
  st.peak_pending_probes =
      std::max(st.peak_pending_probes, corr.peak_pending());
  return st;
}

}  // namespace odns::scan

#include "scan/vantage.hpp"

#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "dnswire/codec.hpp"
#include "scan/correlate.hpp"
#include "scan/stream.hpp"

namespace odns::scan {

/// One capture host of a VantageSet: binds the wildcard socket and the
/// ICMP sink on its member host, paces its slice of the plan from the
/// member's own shard, and records raw responses into a shard-local
/// buffer (only ever touched by the shard that owns the member).
class CaptureVantage final : public netsim::App, public netsim::TimerTarget {
 public:
  CaptureVantage(VantageSet& owner, netsim::HostId host, std::uint32_t index)
      : owner_(&owner), host_(host), index_(index) {
    auto& sim = *owner_->sim_;
    sim.bind_udp_wildcard(host_, this);
    sim.set_icmp_handler(host_, [this](const netsim::Packet&) {
      ++stats_.icmp_errors;
    });
  }

  /// Pacing: sends this member's probes due now and arms its next send
  /// instant (one timer pending per member; the words are unused).
  void on_timer(std::uint64_t, std::uint64_t) override {
    const VantagePlan& plan = owner_->plan_;
    const auto delay = pacer_.fire(
        plan, [&](std::uint32_t i) { send(plan.probes()[i]); });
    if (delay) owner_->sim_->schedule_timer(*delay, this, 0);
  }

  void on_datagram(const netsim::Datagram& dgram) override {
    record_response(dgram, owner_->sim_->now(), index_, capture_, stats_);
  }

  /// This member's slice of the plan (only touched by its own shard
  /// once the run starts).
  [[nodiscard]] PlanPacer& pacer() { return pacer_; }
  [[nodiscard]] netsim::HostId host() const { return host_; }
  [[nodiscard]] const std::vector<RawResponse>& capture() const {
    return capture_;
  }
  /// Streaming flush access: the window merge consumes a time-ordered
  /// prefix and compacts it between simulator windows.
  [[nodiscard]] std::vector<RawResponse>& mutable_capture() {
    return capture_;
  }
  [[nodiscard]] const ScannerStats& stats() const { return stats_; }

 private:
  void send(const PlannedProbe& probe) {
    auto& sim = *owner_->sim_;
    if (probe.attempt == 0) {
      ++stats_.probes_sent;
    } else {
      ++stats_.probes_retried;
    }
    const ScanConfig& cfg = owner_->cfg_;
    const dnswire::Name qname = cfg.qname_for_target
                                    ? cfg.qname_for_target(probe.target)
                                    : cfg.qname;
    netsim::SendOptions opts;
    opts.dst = probe.target;
    opts.src_port = probe.src_port;
    opts.dst_port = 53;
    // Every vantage sends as the shared capture address (the member
    // ASes are SAV-free), so probe content — and with it routing, loss
    // fates, and responder behaviour — is byte-identical to the
    // single-vantage scan.
    opts.spoof_src = owner_->capture_addr_;
    opts.payload =
        dnswire::encode(dnswire::make_query(probe.txid, qname, cfg.qtype));
    sim.send_udp(host_, std::move(opts));
  }

  VantageSet* owner_;
  netsim::HostId host_;
  std::uint32_t index_;
  PlanPacer pacer_;
  std::vector<RawResponse> capture_;
  ScannerStats stats_;
};

VantageSet::VantageSet(netsim::Simulator& sim, ScanConfig cfg,
                       util::Ipv4 capture_addr,
                       std::vector<netsim::HostId> member_hosts)
    : sim_(&sim), cfg_(std::move(cfg)), capture_addr_(capture_addr) {
  assert(!member_hosts.empty());
  sim_->set_vantage_capture(capture_addr_, member_hosts);
  members_.reserve(member_hosts.size());
  for (std::size_t j = 0; j < member_hosts.size(); ++j) {
    members_.push_back(std::make_unique<CaptureVantage>(
        *this, member_hosts[j], static_cast<std::uint32_t>(j)));
  }
}

VantageSet::~VantageSet() { sim_->clear_vantage_capture(); }

void VantageSet::start(const std::vector<util::Ipv4>& targets) {
  for (const auto& m : members_) {
    if (m->pacer().pacing()) {
      throw std::logic_error(
          "VantageSet::start: the previous plan is still pacing");
    }
  }
  plan_ = VantagePlan::build(*sim_, cfg_, targets);
  const util::SimTime t0 = sim_->now();
  std::unordered_map<netsim::HostId, std::uint32_t> member_of_host;
  for (std::uint32_t j = 0; j < members_.size(); ++j) {
    member_of_host.emplace(members_[j]->host(), j);
  }
  const auto& net = sim_->net();
  probes_.reserve(probes_.size() + plan_.original_count());
  sender_.reserve(sender_.size() + plan_.original_count());
  std::vector<std::vector<std::uint32_t>> slices(members_.size());
  for (std::size_t i = 0; i < plan_.probes().size(); ++i) {
    const PlannedProbe& p = plan_.probes()[i];
    // Retransmission entries (attempt > 0) reuse their original's
    // (port, txid) tuple and target, so they add sends but no probe
    // rows: the original row represents the transaction.
    if (p.attempt == 0) {
      probes_.push_back(SentProbe{p.target, p.src_port, p.txid, t0 + p.at});
    }
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
    CaptureVantage& m = *members_[j];
    m.pacer().assign(plan_, std::move(slices[j]));
    // start() runs outside the event loop: each member's first timer
    // must land on the member's own shard.
    if (m.pacer().pacing()) {
      sim_->schedule_timer_on(m.host(), m.pacer().next_at(plan_), &m, 0);
    }
  }
  // Sends happen at exactly their planned instants, so the last send
  // lands at the last plan offset (start time for an empty plan) — the
  // value the classic scanner records after its sends complete.
  last_send_at_ = plan_.probes().empty() ? t0 : t0 + plan_.last_at();
}

void VantageSet::run_to_completion() {
  // Same drain protocol as the classic scanner: drain all traffic,
  // close the timeout window after the last planned send, settle.
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.timeout + cfg_.drain_settle);
  sim_->run();
}

std::vector<RawResponse> VantageSet::merged_capture() const {
  std::vector<const std::vector<RawResponse>*> buffers;
  buffers.reserve(members_.size());
  for (const auto& m : members_) buffers.push_back(&m->capture());
  return merge_captures(buffers);
}

const std::vector<RawResponse>& VantageSet::capture_of(
    std::size_t vantage) const {
  return members_[vantage]->capture();
}

ScannerStats VantageSet::stats() const {
  ScannerStats agg = correlate_stats_;
  for (const auto& m : members_) agg += m->stats();
  return agg;
}

std::vector<Transaction> VantageSet::correlate() {
  const std::vector<RawResponse> merged = merged_capture();
  std::vector<Transaction> out =
      correlate_capture(probes_, merged, cfg_.timeout, correlate_stats_,
                        cfg_.retry_extension());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].answered) out[i].vantage = sender_[i];
  }
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
    corr.consume(std::move(members_[best]->mutable_capture()[pos[best]]));
    ++pos[best];
  }
  for (std::size_t v = 0; v < k; ++v) {
    auto& buf = members_[v]->mutable_capture();
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

#include "scan/txscanner.hpp"

#include <numeric>
#include <stdexcept>

#include "dnswire/codec.hpp"
#include "scan/correlate.hpp"

namespace odns::scan {

TransactionalScanner::TransactionalScanner(netsim::Simulator& sim,
                                           netsim::HostId host, ScanConfig cfg)
    : sim_(&sim), host_(host), cfg_(std::move(cfg)) {
  sim_->bind_udp_wildcard(host_, this);
  sim_->set_icmp_handler(host_, [this](const netsim::Packet&) {
    ++stats_.icmp_errors;
  });
}

void TransactionalScanner::send_planned(const PlannedProbe& probe) {
  if (probe.attempt == 0) {
    ++stats_.probes_sent;
  } else {
    ++stats_.probes_retried;
  }
  last_send_at_ = sim_->now();

  const dnswire::Name qname = cfg_.qname_for_target
                                  ? cfg_.qname_for_target(probe.target)
                                  : cfg_.qname;
  netsim::SendOptions opts;
  opts.dst = probe.target;
  opts.src_port = probe.src_port;
  opts.dst_port = 53;
  opts.payload =
      dnswire::encode(dnswire::make_query(probe.txid, qname, cfg_.qtype));
  sim_->send_udp(host_, std::move(opts));
}

void TransactionalScanner::start(const std::vector<util::Ipv4>& targets) {
  if (pacer_.pacing()) {
    throw std::logic_error(
        "TransactionalScanner::start: the previous plan is still pacing");
  }
  plan_ = VantagePlan::build(*sim_, cfg_, targets);
  const util::SimTime t0 = sim_->now();
  probes_.reserve(probes_.size() + plan_.original_count());
  for (const PlannedProbe& p : plan_.probes()) {
    // The probe table is materialized from the attempt-0 plan prefix:
    // sends happen at exactly their planned instants, so the planned
    // send time is the sent_at the classic scanner would have
    // recorded. Retransmission entries share their original's tuple
    // and are represented by it — they schedule sends, never rows.
    if (p.attempt == 0) {
      probes_.push_back(SentProbe{p.target, p.src_port, p.txid, t0 + p.at});
    }
  }
  std::vector<std::uint32_t> indices(plan_.probes().size());
  std::iota(indices.begin(), indices.end(), 0u);
  pacer_.assign(plan_, std::move(indices));
  // Shard-affine pacing: start() runs outside the event loop, so the
  // first timer must land on the shard owning the scanner host.
  if (pacer_.pacing()) {
    sim_->schedule_timer_on(host_, pacer_.next_at(plan_), this, 0);
  }
  last_send_at_ = t0 + plan_.span();
}

void TransactionalScanner::on_timer(std::uint64_t, std::uint64_t) {
  const auto delay = pacer_.fire(
      plan_, [&](std::uint32_t i) { send_planned(plan_.probes()[i]); });
  if (delay) sim_->schedule_timer(*delay, this, 0);
}

void TransactionalScanner::run_to_completion() {
  // Drain all traffic, then let the timeout window close.
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.timeout + cfg_.drain_settle);
  sim_->run();
}

void TransactionalScanner::on_datagram(const netsim::Datagram& dgram) {
  record_response(dgram, sim_->now(), /*vantage=*/0, capture_, stats_);
}

std::vector<Transaction> TransactionalScanner::correlate() {
  return correlate_capture(probes_, capture_, cfg_.timeout, stats_,
                           cfg_.retry_extension());
}

}  // namespace odns::scan

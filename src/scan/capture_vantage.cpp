#include "scan/capture_vantage.hpp"

#include <cassert>
#include <type_traits>

#include "dnswire/codec.hpp"

namespace odns::scan {

static_assert(!std::is_copy_constructible_v<CaptureVantage> &&
              !std::is_move_constructible_v<CaptureVantage>);

CaptureVantage::CaptureVantage(netsim::Simulator& sim, netsim::HostId host,
                               std::uint32_t index,
                               std::optional<util::Ipv4> spoof_src)
    : sim_(&sim), host_(host), index_(index), spoof_src_(spoof_src) {
  sim_->bind_udp_wildcard(host_, this);
  sim_->set_icmp_handler(host_, [this](const netsim::Packet&) {
    ++stats_.icmp_errors;
  });
}

void CaptureVantage::pace(const VantagePlan& plan, const ScanConfig& cfg,
                          std::vector<std::uint32_t> slice) {
  assert(!pacing());
  plan_ = &plan;
  cfg_ = &cfg;
  query_.clear();
  if (!cfg.qname_for_target) {
    query_ = dnswire::encode(dnswire::make_query(0, cfg.qname, cfg.qtype));
  }
  pacer_.assign(plan, std::move(slice));
  // pace() runs outside the event loop, so the first timer must land
  // on the shard owning this host.
  if (pacer_.pacing()) {
    sim_->schedule_timer_on(host_, pacer_.next_at(plan), this, 0);
  }
}

void CaptureVantage::on_timer(std::uint64_t, std::uint64_t) {
  const auto delay = pacer_.fire(
      *plan_, [&](std::uint32_t i) { send(plan_->probes()[i]); });
  if (delay) sim_->schedule_timer(*delay, this, 0);
}

void CaptureVantage::send(const PlannedProbe& probe) {
  if (probe.attempt == 0) {
    ++stats_.probes_sent;
  } else {
    ++stats_.probes_retried;
  }
  netsim::SendOptions opts;
  opts.dst = probe.target;
  opts.src_port = probe.src_port;
  opts.dst_port = 53;
  opts.spoof_src = spoof_src_;
  if (query_.empty()) {
    opts.payload = dnswire::encode(dnswire::make_query(
        probe.txid, cfg_->qname_for_target(probe.target), cfg_->qtype));
    sim_->send_udp(host_, std::move(opts));
    return;
  }
  // The ID is the first header field: patching it yields the bytes a
  // fresh encode with this TXID would.
  query_[0] = static_cast<std::uint8_t>(probe.txid >> 8);
  query_[1] = static_cast<std::uint8_t>(probe.txid & 0xFF);
  sim_->send_udp(host_, std::move(opts), query_);
}

void CaptureVantage::on_datagram(const netsim::Datagram& dgram) {
  const dnswire::ArenaLease lease;
  auto parsed = dnswire::decode_into(lease.set.rx, *dgram.payload);
  if (!parsed) {
    // Undecodable captures are counted twice on purpose: parse_errors
    // keeps the classic total, responses_corrupt isolates the wire-
    // damage subset the fault plane injects (the fuzz-hardened decode
    // rejects the flipped bytes instead of misclassifying them).
    ++stats_.parse_errors;
    ++stats_.responses_corrupt;
    return;
  }
  const auto& msg = parsed.value();
  if (!msg.header.qr) return;  // stray queries aimed at the capture host
  ++stats_.responses_received;
  RawResponse rec;
  rec.src = dgram.src;
  rec.src_port = dgram.src_port;
  rec.dst_port = dgram.dst_port;
  rec.txid = msg.header.id;
  rec.at = sim_->now();
  rec.rcode = msg.header.rcode;
  for (const auto& rr : msg.answers) {
    if (rr.rdata.tag == dnswire::RdataView::Tag::a) {
      rec.answer_addrs.push_back(rr.rdata.a_addr);
    }
  }
  rec.vantage = index_;
  capture_.push_back(std::move(rec));
}

void run_scan_to_completion(netsim::Simulator& sim, util::SimTime last_send_at,
                            const ScanConfig& cfg) {
  sim.run();
  sim.run_until(last_send_at + cfg.timeout + cfg.drain_settle);
  sim.run();
}

}  // namespace odns::scan

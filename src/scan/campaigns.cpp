#include "scan/campaigns.hpp"

#include <stdexcept>

namespace odns::scan {

std::string to_string(CampaignKind k) {
  switch (k) {
    case CampaignKind::shadowserver: return "Shadowserver";
    case CampaignKind::censys: return "Censys";
    case CampaignKind::shodan: return "Shodan";
  }
  return "?";
}

namespace {

CampaignConfig checked(CampaignConfig cfg) {
  if (cfg.probes_per_second == 0) {
    throw std::invalid_argument(
        "StatelessCampaign: probes_per_second must be > 0");
  }
  return cfg;
}

}  // namespace

StatelessCampaign::StatelessCampaign(netsim::Simulator& sim,
                                     netsim::HostId host, CampaignConfig cfg)
    : sim_(&sim), host_(host), cfg_(checked(std::move(cfg))),
      gap_(util::Duration::nanos(static_cast<std::int64_t>(
          1e9 / static_cast<double>(cfg_.probes_per_second)))),
      next_port_(cfg_.port_base) {
  sim_->bind_udp_wildcard(host_, this);
}

void StatelessCampaign::run(const std::vector<util::Ipv4>& targets) {
  targets_ = targets;
  // Shard-affine pacing (run() is called from outside the event loop);
  // each firing arms the next send instant from the host's shard.
  if (!targets_.empty()) {
    sim_->schedule_timer_on(host_, util::Duration::nanos(0), this, 0);
  }
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.settle);
  sim_->run();
}

void StatelessCampaign::on_timer(std::uint64_t index, std::uint64_t) {
  // Target i is due at i * gap_: a zero gap sends them all now.
  std::size_t i = static_cast<std::size_t>(index);
  do {
    send_probe(targets_[i++]);
  } while (i < targets_.size() && gap_ == util::Duration::nanos(0));
  if (i < targets_.size()) sim_->schedule_timer(gap_, this, i);
}

void StatelessCampaign::send_probe(util::Ipv4 target) {
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= cfg_.port_limit
                   ? cfg_.port_base
                   : static_cast<std::uint16_t>(next_port_ + 1);
  probe_target_by_port_[port] = target;
  netsim::SendOptions opts;
  opts.dst = target;
  opts.src_port = port;
  opts.dst_port = 53;
  opts.payload = dnswire::encode(
      dnswire::make_query(next_txid_++, cfg_.qname, cfg_.qtype));
  last_send_at_ = sim_->now();
  sim_->send_udp(host_, std::move(opts));
}

void StatelessCampaign::on_datagram(const netsim::Datagram& dgram) {
  auto parsed = dnswire::decode(*dgram.payload);
  if (!parsed) return;
  const auto& msg = parsed.value();
  if (!msg.header.qr || msg.header.rcode != dnswire::Rcode::noerror ||
      msg.answers.empty()) {
    return;  // all campaigns require a positive answer
  }
  ++responses_;
  switch (cfg_.kind) {
    case CampaignKind::shadowserver:
      // Pure response-based inventory: whoever answered is recorded.
      discovered_.insert(dgram.src);
      break;
    case CampaignKind::censys:
    case CampaignKind::shodan: {
      // Sanitizing step: the response must come from the address this
      // socket probed; off-target answers are scan artifacts.
      auto it = probe_target_by_port_.find(dgram.dst_port);
      if (it != probe_target_by_port_.end() && it->second == dgram.src) {
        discovered_.insert(dgram.src);
      } else {
        ++dropped_sanitize_;
      }
      break;
    }
  }
}

}  // namespace odns::scan

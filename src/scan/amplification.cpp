#include "scan/amplification.hpp"

#include <algorithm>
#include <tuple>

#include "dnswire/codec.hpp"
#include "dnswire/message.hpp"

namespace odns::scan {

void VictimMeter::on_datagram(const netsim::Datagram& dgram) {
  Reflection r;
  r.victim = victim_;
  r.src = dgram.src;
  r.src_port = dgram.src_port;
  r.dst_port = dgram.dst_port;
  r.bytes = dgram.payload->size();
  r.at = sim_->now();
  if (auto parsed = dnswire::decode(*dgram.payload)) {
    r.truncated = parsed.value().header.tc;
  }
  records_.push_back(std::move(r));
}

AmplificationCampaign::AmplificationCampaign(netsim::Simulator& sim,
                                             AmplificationConfig cfg)
    : sim_(&sim), cfg_(std::move(cfg)) {}

void AmplificationCampaign::add_attacker(netsim::HostId host) {
  attackers_.push_back(host);
}

void AmplificationCampaign::add_victim(netsim::HostId host, util::Ipv4 addr) {
  VictimSlot slot;
  slot.host = host;
  slot.meter = std::make_unique<VictimMeter>(*sim_, addr);
  sim_->bind_udp_wildcard(host, slot.meter.get());
  victims_.push_back(std::move(slot));
}

void AmplificationCampaign::start(const std::vector<util::Ipv4>& reflectors) {
  if (attackers_.empty() || victims_.empty() || reflectors.empty()) {
    last_send_at_ = sim_->now();
    return;
  }
  // Every query is the same question, so the wire size (txid is always
  // two octets) is a constant of the campaign.
  const std::uint64_t query_bytes =
      dnswire::encode(dnswire::make_query(0, cfg_.qname, cfg_.qtype)).size();
  const std::uint64_t gap_ns =
      cfg_.probes_per_second == 0
          ? 0
          : 1'000'000'000ull / cfg_.probes_per_second;
  const std::uint32_t port_range =
      static_cast<std::uint32_t>(cfg_.port_limit - cfg_.port_base);

  const util::SimTime t0 = sim_->now();
  injections_.reserve(victims_.size() * reflectors.size());
  std::size_t i = 0;
  for (const auto& slot : victims_) {
    for (const util::Ipv4 reflector : reflectors) {
      Injection inj;
      inj.victim = slot.meter->victim();
      inj.reflector = reflector;
      inj.attacker = attackers_[i % attackers_.size()];
      inj.attacker_as = sim_->net().host(inj.attacker).asn;
      inj.src_port = static_cast<std::uint16_t>(
          cfg_.port_base + static_cast<std::uint32_t>(i) % port_range);
      inj.txid = static_cast<std::uint16_t>(i + 1);
      inj.bytes = query_bytes;
      const auto delay = util::Duration::nanos(
          static_cast<std::int64_t>(gap_ns * i));
      inj.at = t0 + delay;
      injections_.push_back(inj);
      ++i;
    }
  }
  last_send_at_ = injections_.back().at;
  // Injections fire on the shard owning their attacker, one pending
  // timer per attacker shard walking that shard's injections in index
  // order. start() runs outside the event loop, so each first timer is
  // placed shard-affine (exactly the scanner's pacing pattern).
  attacker_shard_.clear();
  for (const netsim::HostId host : attackers_) {
    attacker_shard_.push_back(sim_->shard_of(host));
  }
  for (std::size_t a = 0; a < attackers_.size(); ++a) {
    const bool first_on_shard =
        std::find(attacker_shard_.begin(), attacker_shard_.begin() + a,
                  attacker_shard_[a]) == attacker_shard_.begin() + a;
    if (first_on_shard && a < injections_.size()) {
      sim_->schedule_timer_on(attackers_[a], injections_[a].at - t0, this, a);
    }
  }
}

std::size_t AmplificationCampaign::next_on_shard(std::size_t i) const {
  const std::size_t n = attackers_.size();
  const std::uint32_t shard = attacker_shard_[i % n];
  do {
    ++i;
  } while (i < injections_.size() && attacker_shard_[i % n] != shard);
  return i;
}

void AmplificationCampaign::on_timer(std::uint64_t injection_index,
                                     std::uint64_t) {
  // Sends only — injections_ and attacker_shard_ are immutable after
  // start(), so concurrent attacker shards share nothing mutable here.
  const util::SimTime at = injections_[injection_index].at;
  std::size_t i = static_cast<std::size_t>(injection_index);
  do {
    const Injection& inj = injections_[i];
    netsim::SendOptions opts;
    opts.dst = inj.reflector;
    opts.src_port = inj.src_port;
    opts.dst_port = 53;
    opts.spoof_src = inj.victim;
    opts.payload = dnswire::encode(
        dnswire::make_query(inj.txid, cfg_.qname, cfg_.qtype));
    sim_->send_udp(inj.attacker, std::move(opts));
    i = next_on_shard(i);
  } while (i < injections_.size() && injections_[i].at == at);
  if (i < injections_.size()) {
    sim_->schedule_timer(injections_[i].at - at, this, i);
  }
}

void AmplificationCampaign::run_to_completion() {
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.settle);
  sim_->run();
}

std::vector<Reflection> AmplificationCampaign::merged_reflections() const {
  std::vector<Reflection> all;
  for (const auto& slot : victims_) {
    const auto& recs = slot.meter->records();
    all.insert(all.end(), recs.begin(), recs.end());
  }
  std::sort(all.begin(), all.end(), [](const Reflection& a, const Reflection& b) {
    return std::tuple(a.at.nanos(), a.victim, a.src, a.src_port, a.dst_port,
                      a.bytes, a.truncated) <
           std::tuple(b.at.nanos(), b.victim, b.src, b.src_port, b.dst_port,
                      b.bytes, b.truncated);
  });
  return all;
}

}  // namespace odns::scan

#include "dnsroute/dnsroute.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace odns::dnsroute {

bool TracePath::complete() const {
  if (target_distance < 0 || !got_answer || answer_ttl <= target_distance) {
    return false;
  }
  for (int t = 1; t < answer_ttl; ++t) {
    if (!hops[static_cast<std::size_t>(t - 1)].responded) return false;
  }
  return true;
}

std::vector<util::Ipv4> TracePath::hop_addrs() const {
  std::vector<util::Ipv4> out;
  const int limit = answer_ttl > 0 ? answer_ttl - 1
                                   : static_cast<int>(hops.size());
  for (int t = 1; t <= limit; ++t) {
    const auto& hop = hops[static_cast<std::size_t>(t - 1)];
    if (hop.responded) out.push_back(hop.addr);
  }
  return out;
}

namespace {

DnsrouteConfig checked(DnsrouteConfig cfg) {
  if (cfg.probes_per_second == 0) {
    throw std::invalid_argument("DNSRoute++: probes_per_second must be > 0");
  }
  if (cfg.max_ttl < 1 || cfg.max_ttl > 255) {
    throw std::invalid_argument("DNSRoute++: max_ttl must be in 1..255");
  }
  return cfg;
}

}  // namespace

DnsroutePlusPlus::DnsroutePlusPlus(netsim::Simulator& sim,
                                   netsim::HostId host, DnsrouteConfig cfg)
    : sim_(&sim), host_(host), cfg_(checked(std::move(cfg))),
      gap_(util::Duration::nanos(static_cast<std::int64_t>(
          1e9 / static_cast<double>(cfg_.probes_per_second)))),
      query_(dnswire::encode(
          dnswire::make_query(0, cfg_.qname, dnswire::RrType::a))) {
  sim_->bind_udp_wildcard(host_, this);
  sim_->set_icmp_handler(host_,
                         [this](const netsim::Packet& pkt) { on_icmp(pkt); });
}

void DnsroutePlusPlus::send_probe(std::uint64_t probe) {
  const std::uint64_t i = probe - run_first_;
  const auto max_ttl = static_cast<std::uint64_t>(cfg_.max_ttl);
  const auto txid =
      static_cast<std::uint16_t>(1 + (probe + 1) / kPorts % kTxids);
  netsim::SendOptions opts;
  opts.dst = paths_[i / max_ttl].target;
  opts.src_port = static_cast<std::uint16_t>(kPortBase + probe % kPorts);
  opts.dst_port = 53;
  opts.ttl = static_cast<int>(i % max_ttl) + 1;
  opts.payload = query_;
  opts.payload[0] = static_cast<std::uint8_t>(txid >> 8);
  opts.payload[1] = static_cast<std::uint8_t>(txid & 0xFF);
  sent_ = probe + 1;
  last_send_at_ = sim_->now();
  sim_->send_udp(host_, std::move(opts));
}

void DnsroutePlusPlus::on_timer(std::uint64_t, std::uint64_t) {
  // Probe j of the run is due at j * gap_: with a zero gap every probe
  // shares this instant, otherwise each has its own.
  do {
    send_probe(sent_);
  } while (sent_ < run_end_ && gap_ == util::Duration::nanos(0));
  if (sent_ < run_end_) sim_->schedule_timer(gap_, this, 0);
}

std::vector<TracePath> DnsroutePlusPlus::run(
    const std::vector<util::Ipv4>& targets) {
  paths_.clear();
  paths_.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    paths_[i].target = targets[i];
    paths_[i].hops.assign(static_cast<std::size_t>(cfg_.max_ttl), Hop{});
  }
  run_first_ = sent_;
  run_end_ = sent_ + targets.size() * static_cast<std::uint64_t>(cfg_.max_ttl);
  // Shard-affine pacing: armed from outside the event loop, so the
  // first timer must land on the shard owning the vantage host; each
  // firing arms the next from that shard.
  if (run_end_ > run_first_) {
    sim_->schedule_timer_on(host_, util::Duration::nanos(0), this, 0);
  }
  sim_->run();
  sim_->run_until(last_send_at_ + cfg_.settle);
  sim_->run();
  return std::move(paths_);
}

std::optional<std::pair<std::size_t, int>> DnsroutePlusPlus::probe_in_run(
    std::uint64_t residue, std::uint64_t period) const {
  if (sent_ == 0 || residue >= sent_) return std::nullopt;
  const std::uint64_t last = sent_ - 1;
  const std::uint64_t probe = last - (last - residue) % period;
  if (probe < run_first_) return std::nullopt;
  const std::uint64_t i = probe - run_first_;
  const auto max_ttl = static_cast<std::uint64_t>(cfg_.max_ttl);
  return std::pair{static_cast<std::size_t>(i / max_ttl),
                   static_cast<int>(i % max_ttl) + 1};
}

void DnsroutePlusPlus::on_icmp(const netsim::Packet& pkt) {
  if (pkt.icmp_type != netsim::IcmpType::ttl_exceeded) return;
  const std::uint16_t port = pkt.icmp_quote.orig_src_port;
  if (port < kPortBase) return;
  const auto match = probe_in_run(port - kPortBase, kPorts);
  if (!match) return;
  const auto [target_idx, ttl] = *match;
  auto& path = paths_[target_idx];
  auto& hop = path.hops[static_cast<std::size_t>(ttl - 1)];
  if (!hop.responded) {
    hop.responded = true;
    hop.addr = pkt.src;
  }
  if (pkt.src == path.target &&
      (path.target_distance < 0 || ttl < path.target_distance)) {
    path.target_distance = ttl;
  }
}

void DnsroutePlusPlus::on_datagram(const netsim::Datagram& dgram) {
  arena_.reset();
  auto parsed = dnswire::decode_into(arena_, *dgram.payload);
  if (!parsed) return;
  const auto& msg = parsed.value();
  if (!msg.header.qr) return;
  if (dgram.dst_port < kPortBase || msg.header.id == 0) return;
  // Invert the send tuple: port gives probe % kPorts, the TXID plane
  // gives (probe + 1) / kPorts, both modulo the kPorts * kTxids cycle.
  const std::uint64_t port_rank = dgram.dst_port - kPortBase;
  const std::uint64_t plane = msg.header.id - 1u;
  const std::uint64_t cycle = kPorts * kTxids;
  const std::uint64_t residue =
      (plane * kPorts + (port_rank + 1) % kPorts + cycle - 1) % cycle;
  const auto match = probe_in_run(residue, cycle);
  if (!match) return;
  const auto [target_idx, ttl] = *match;
  auto& path = paths_[target_idx];
  if (msg.header.rcode != dnswire::Rcode::noerror || msg.answers.empty()) {
    return;
  }
  if (!path.got_answer || ttl < path.answer_ttl) {
    path.got_answer = true;
    path.answer_ttl = ttl;
    path.resolver = dgram.src;
  }
}

std::vector<PathLengthSample> path_length_samples(
    const std::vector<TracePath>& paths,
    const registry::RegistrySnapshot& registry) {
  std::vector<PathLengthSample> out;
  for (const auto& path : paths) {
    if (!path.complete()) continue;
    const auto project_addr = path.resolver;
    std::optional<topo::ResolverProject> project;
    // Attribute by the answering service address's origin AS.
    if (auto asn = registry.routeviews.origin_of(project_addr)) {
      project = registry.project_of_asn(*asn);
    }
    if (!project) continue;  // national/ISP resolvers: out of Fig. 6 scope
    PathLengthSample sample;
    sample.project = *project;
    sample.hops = path.forwarder_to_resolver_hops();
    if (auto fwd_asn = registry.routeviews.origin_of(path.target)) {
      sample.forwarder_asn = *fwd_asn;
    }
    out.push_back(sample);
  }
  return out;
}

AsRelationshipReport infer_relationships(
    const std::vector<TracePath>& paths,
    const registry::RegistrySnapshot& registry) {
  AsRelationshipReport report;
  std::unordered_set<std::uint64_t> inferred;
  for (const auto& path : paths) {
    if (!path.complete()) continue;
    ++report.paths_considered;
    const auto fwd_asn = registry.routeviews.origin_of(path.target);
    if (!fwd_asn) continue;

    // AS immediately before the forwarder (last hop < target_distance)
    // and immediately after (first hop > target_distance) on the path.
    std::optional<netsim::Asn> as_in;
    std::optional<netsim::Asn> as_out;
    for (int t = path.target_distance - 1; t >= 1; --t) {
      const auto& hop = path.hops[static_cast<std::size_t>(t - 1)];
      if (!hop.responded) break;
      const auto asn = registry.routeviews.origin_of(hop.addr);
      if (asn && *asn != *fwd_asn) {
        as_in = asn;
        break;
      }
    }
    for (int t = path.target_distance + 1; t < path.answer_ttl; ++t) {
      const auto& hop = path.hops[static_cast<std::size_t>(t - 1)];
      if (!hop.responded) break;
      const auto asn = registry.routeviews.origin_of(hop.addr);
      if (asn && *asn != *fwd_asn) {
        as_out = asn;
        break;
      }
    }
    if (!as_in || !as_out) continue;
    ++report.paths_with_as_mapping;
    if (*as_in != *as_out) continue;
    ++report.as_in_equals_as_out;
    const std::uint64_t edge = (std::uint64_t{*as_in} << 32) | *fwd_asn;
    if (inferred.insert(edge).second) {
      ++report.inferred_provider_customer;
      if (!registry.caida.knows(*as_in, *fwd_asn)) {
        ++report.unknown_to_caida;
      }
    }
  }
  return report;
}

}  // namespace odns::dnsroute

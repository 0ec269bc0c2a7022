#include "nodes/auth_server.hpp"

#include <algorithm>

namespace odns::nodes {

using dnswire::Message;
using dnswire::Name;
using dnswire::NameKey;
using dnswire::Rcode;
using dnswire::ResourceRecord;
using dnswire::RrType;

void Zone::add_record(ResourceRecord rr) {
  names_.emplace(NameKey(rr.name.labels(), RrType::any).bytes(), true);
  rrsets_[std::string(NameKey(rr.name.labels(), rr.type).bytes())].push_back(
      std::move(rr));
}

void Zone::add_a(const std::string& name, util::Ipv4 addr, std::uint32_t ttl) {
  auto n = Name::parse(name);
  if (!n) return;
  add_record(ResourceRecord::a(*n, addr, ttl));
}

void Zone::delegate(const Name& child, const Name& ns_host,
                    util::Ipv4 glue_addr, std::uint32_t ttl) {
  Delegation* d = nullptr;
  for (auto& existing : delegations) {
    if (existing.child == child) {
      d = &existing;
      break;
    }
  }
  if (d == nullptr) {
    delegations.emplace_back();
    d = &delegations.back();
    d->child = child;
  }
  d->ns_records.push_back(ResourceRecord::ns(child, ns_host, ttl));
  d->glue.push_back(ResourceRecord::a(ns_host, glue_addr, ttl));
}

const std::vector<ResourceRecord>* Zone::find(const Name& name,
                                              RrType type) const {
  auto it = rrsets_.find(NameKey(name.labels(), type).bytes());
  return it == rrsets_.end() ? nullptr : &it->second;
}

bool Zone::has_name(const Name& name) const {
  return names_.contains(NameKey(name.labels(), RrType::any).bytes());
}

const Delegation* Zone::find_delegation(const Name& name) const {
  for (const auto& d : delegations) {
    if (name.is_subdomain_of(d.child)) return &d;
  }
  return nullptr;
}

AuthServer::AuthServer(netsim::Simulator& sim, netsim::HostId host)
    : DnsNode(sim, host) {}

Zone& AuthServer::add_zone(const Name& origin) {
  auto& z = zones_.emplace_back();
  z.origin = origin;
  return z;
}

Zone* AuthServer::zone_for_mutable(const Name& name) {
  return const_cast<Zone*>(zone_for(name));
}

void AuthServer::start() { sim().bind_udp(host(), kDnsPort, this); }

const Zone* AuthServer::zone_for(const Name& qname) const {
  // Longest-origin match so that a server hosting both "net" and
  // "odns-study.net" answers authoritatively for the deeper zone.
  const Zone* best = nullptr;
  for (const auto& z : zones_) {
    if (qname.is_subdomain_of(z.origin)) {
      if (best == nullptr ||
          z.origin.label_count() > best->origin.label_count()) {
        best = &z;
      }
    }
  }
  return best;
}

bool AuthServer::build_mirror_response(dnswire::WireArena& arena,
                                       const dnswire::MessageView& query,
                                       util::Ipv4 client,
                                       dnswire::MessageView& out) const {
  if (query.header.qr) return false;
  if (!mirror_) return false;
  if (query.questions.size() != 1) return false;
  const auto& q = query.questions.front();
  if (q.type != RrType::a && q.type != RrType::any) return false;
  if (!q.name.equals(mirror_->name)) return false;

  const auto& cfg = *mirror_;
  const std::size_t n = cfg.include_control ? 2 : 1;
  auto answers = arena.alloc_array<dnswire::RecordView>(n);
  // Dynamic record first: mirrors the immediate client — for relayed
  // queries this is the recursive resolver's egress address, which is
  // exactly what lets the scanner see *which* resolver served it. The
  // owner name reuses the question's view (equal to cfg.name up to
  // case), so it compresses to a pointer at the echoed question.
  answers[0].name = q.name;
  answers[0].type = RrType::a;
  answers[0].ttl = cfg.ttl;
  answers[0].rdata.tag = dnswire::RdataView::Tag::a;
  answers[0].rdata.a_addr = client;
  if (cfg.include_control) {
    answers[1] = answers[0];
    answers[1].rdata.a_addr = cfg.control_addr;
  }

  out = dnswire::MessageView{};
  out.header.id = query.header.id;
  out.header.qr = true;
  out.header.rd = query.header.rd;
  out.header.aa = true;
  out.questions = query.questions;
  out.answers = answers;
  return true;
}

bool AuthServer::on_message_view(const netsim::Datagram& dgram,
                                 const dnswire::MessageView& msg) {
  if (msg.header.qr) return true;  // not a query; ignore
  if (msg.questions.size() == 1) {
    if (log_queries_) {
      query_log_.push_back(QueryLogEntry{msg.questions.front().name.to_name(),
                                         dgram.src, sim().now()});
    }
    if (limiter_ && !limiter_->allow(dgram.src, sim().now())) {
      ++counters_.rate_limited;
      return true;  // silently dropped, like the deployed sensors
    }
  }
  // The mirror zone is served on views; everything else falls back to
  // the heap model in on_message.
  dnswire::MessageView resp;
  if (!build_mirror_response(scratch_arena(), msg, dgram.src, resp)) {
    return false;
  }
  ++queries_answered_;
  reply_view(dgram, resp);
  return true;
}

void AuthServer::on_message(const netsim::Datagram& dgram, Message msg) {
  if (msg.header.qr) return;  // not a query; ignore
  if (msg.questions.size() != 1) {
    Message resp = dnswire::make_response(msg, Rcode::formerr);
    reply(dgram, resp);
    return;
  }
  const auto& q = msg.questions.front();
  const Zone* zone = zone_for(q.name);
  if (zone == nullptr) {
    ++counters_.refused;
    Message resp = dnswire::make_response(msg, Rcode::refused);
    reply(dgram, resp);
    return;
  }

  // Delegation below us? Hand out a referral (never authoritative).
  if (const auto* d = zone->find_delegation(q.name)) {
    Message resp = dnswire::make_response(msg);
    resp.header.aa = false;
    resp.authorities = d->ns_records;
    resp.additionals = d->glue;
    ++queries_answered_;
    reply(dgram, resp);
    return;
  }

  Message resp = dnswire::make_response(msg);
  resp.header.aa = true;
  if (const auto* rrs = zone->find(q.name, q.type)) {
    resp.answers = *rrs;
  } else if (q.type == RrType::any && zone->has_name(q.name)) {
    for (auto type : {RrType::a, RrType::ns, RrType::txt, RrType::cname}) {
      if (const auto* set = zone->find(q.name, type)) {
        resp.answers.insert(resp.answers.end(), set->begin(), set->end());
      }
    }
  } else if (const auto* cname = zone->find(q.name, RrType::cname)) {
    resp.answers = *cname;
  } else if (wildcard_a_ && q.name != zone->origin &&
             (q.type == RrType::a || q.type == RrType::any)) {
    // Destination-encoded scan names: synthesize an answer for any
    // subdomain so the query-based method's unique names all resolve.
    resp.answers.push_back(
        ResourceRecord::a(q.name, *wildcard_a_, zone->default_ttl));
  } else if (zone->has_name(q.name)) {
    // NODATA: name exists, type does not.
    resp.authorities.push_back(ResourceRecord::soa(
        zone->origin, zone->origin, 1, zone->negative_ttl));
  } else {
    resp.header.rcode = Rcode::nxdomain;
    resp.authorities.push_back(ResourceRecord::soa(
        zone->origin, zone->origin, 1, zone->negative_ttl));
  }
  ++queries_answered_;
  reply(dgram, resp);
}

}  // namespace odns::nodes

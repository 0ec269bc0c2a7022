#include "nodes/resolver.hpp"

#include <algorithm>

namespace odns::nodes {

using dnswire::ARecord;
using dnswire::CnameRecord;
using dnswire::MessageView;
using dnswire::Name;
using dnswire::NameKey;
using dnswire::NsRecord;
using dnswire::QuestionView;
using dnswire::Rcode;
using dnswire::RdataView;
using dnswire::RecordView;
using dnswire::ResourceRecord;
using dnswire::RrType;

namespace {

/// Negative TTL from the SOA in the authority section (RFC 2308).
std::uint32_t negative_ttl_of(const MessageView& msg) {
  for (const auto& rr : msg.authorities) {
    if (rr.rdata.tag == RdataView::Tag::soa) {
      return std::min(rr.ttl, rr.rdata.soa->minimum);
    }
  }
  return 300;
}

/// The 0x20 echo check: the same labels, byte for byte (case
/// included) — not merely the same dotted text.
bool same_labels_exact(const dnswire::NameView& got, const Name& sent) {
  return std::equal(got.labels.begin(), got.labels.end(),
                    sent.labels().begin(), sent.labels().end());
}

}  // namespace

RecursiveResolver::RecursiveResolver(netsim::Simulator& sim,
                                     netsim::HostId host, ResolverConfig cfg,
                                     std::uint64_t seed)
    : DnsNode(sim, host), cfg_(std::move(cfg)), cache_(cfg_.max_ttl),
      rng_(seed), seed_(seed) {
  if (cfg_.rrl.rate > 0) rrl_.emplace(cfg_.rrl, seed_);
}

void RecursiveResolver::set_rrl(RrlConfig rrl) {
  cfg_.rrl = rrl;
  if (rrl.rate > 0) {
    rrl_.emplace(rrl, seed_);
  } else {
    rrl_.reset();
  }
}

void RecursiveResolver::send_client_response(
    util::Ipv4 addr, std::uint16_t port, const MessageView& resp,
    std::optional<util::Ipv4> src_override) {
  if (rrl_) {
    const std::uint64_t flow = (std::uint64_t{port} << 16) | resp.header.id;
    switch (rrl_->check(addr, sim().now(), flow)) {
      case RrlAction::pass:
        ++stats_.rrl_passed;
        break;
      case RrlAction::slip: {
        ++stats_.rrl_slipped;
        ++counters_.rate_limited;
        MessageView tc;
        tc.header = resp.header;
        tc.header.tc = true;
        tc.questions = resp.questions;
        send_view(addr, kDnsPort, port, tc, src_override);
        return;
      }
      case RrlAction::drop:
        ++stats_.rrl_dropped;
        ++counters_.rate_limited;
        return;
    }
  }
  send_view(addr, kDnsPort, port, resp, src_override);
}

void RecursiveResolver::start() {
  sim().bind_udp(host(), kDnsPort, this);
  sim().bind_udp_wildcard(host(), this);
}

bool RecursiveResolver::on_message_view(const netsim::Datagram& dgram,
                                        const MessageView& msg) {
  if (dgram.dst_port == kDnsPort && !msg.header.qr) {
    handle_client_query(dgram, msg);
  } else if (dgram.dst_port != kDnsPort && msg.header.qr) {
    handle_upstream_response(dgram, msg);
  }
  // Anything else (responses to port 53, queries to ephemeral ports) is
  // reflection noise; dropped.
  return true;
}

void RecursiveResolver::handle_client_query(const netsim::Datagram& dgram,
                                            const MessageView& msg) {
  ++stats_.client_queries;
  if (msg.questions.size() != 1) {
    send_client_response(dgram.src, dgram.src_port,
                         dnswire::make_response(msg, Rcode::formerr),
                         dgram.dst);
    return;
  }
  const QuestionView& q = msg.questions.front();

  if (!cfg_.open) {
    const bool allowed =
        std::any_of(cfg_.allowed.begin(), cfg_.allowed.end(),
                    [&](const util::Prefix& p) { return p.contains(dgram.src); });
    if (!allowed) {
      ++stats_.refused_acl;
      ++counters_.refused;
      send_client_response(dgram.src, dgram.src_port,
                           dnswire::make_response(msg, Rcode::refused),
                           cfg_.service_addr.value_or(dgram.dst));
      return;
    }
  }

  // Cache first: the response-based scan method deliberately reuses one
  // static name so that resolver caches absorb the load (§2, Table 2).
  // The answer views borrow the cached records; only the TTL is
  // rewritten to the decayed remainder.
  if (auto hit = cache_.find(NameKey(q.name.labels, q.type), sim().now())) {
    ++stats_.answered_from_cache;
    MessageView resp = dnswire::make_response(
        msg, hit->negative ? hit->rcode : Rcode::noerror);
    resp.header.ra = true;
    resp.answers = hit->answer_views(scratch_arena());
    send_client_response(dgram.src, dgram.src_port, resp,
                         cfg_.service_addr.value_or(dgram.dst));
    return;
  }

  Client client{dgram.src, dgram.src_port, msg.header.id, dgram.dst,
                msg.header.rd};
  const NameKey key(q.name.labels, q.type);
  if (auto it = inflight_.find(key.bytes()); it != inflight_.end()) {
    it->second->clients.push_back(client);
    return;
  }
  auto task = std::make_shared<Task>();
  task->original = dnswire::Question{q.name.to_name(), q.type, q.klass};
  task->current_name = task->original.name;
  task->clients.push_back(client);
  inflight_.emplace(std::string(key.bytes()), task);
  ++stats_.full_resolutions;
  begin_iteration(task);
}

std::vector<util::Ipv4> RecursiveResolver::best_servers_for(const Name& name) {
  // Walk from the query name toward the root (label suffixes, keyed
  // without building the ancestor names), looking for a cached
  // delegation whose glue we also have.
  const auto& labels = name.labels();
  for (std::size_t first = 0; first <= labels.size(); ++first) {
    const auto ns_set =
        cache_.find(NameKey(labels, RrType::ns, first), sim().now());
    if (!ns_set || ns_set->negative) continue;
    std::vector<util::Ipv4> addrs;
    for (const auto& rr : *ns_set->records) {
      if (const auto* ns = std::get_if<NsRecord>(&rr.rdata)) {
        const auto glue =
            cache_.find(NameKey(ns->host.labels(), RrType::a), sim().now());
        if (!glue || glue->negative) continue;
        for (const auto& g : *glue->records) {
          if (const auto* a = std::get_if<ARecord>(&g.rdata)) {
            addrs.push_back(a->addr);
          }
        }
      }
    }
    if (!addrs.empty()) return addrs;
  }
  return cfg_.root_hints;
}

void RecursiveResolver::begin_iteration(const TaskPtr& task) {
  task->servers = best_servers_for(task->current_name);
  task->server_idx = 0;
  task->retries_left = cfg_.max_retries;
  if (task->servers.empty()) {
    finish_servfail(task);
    return;
  }
  query_current_server(task);
}

void RecursiveResolver::query_current_server(const TaskPtr& task) {
  if (task->done) return;
  const util::Ipv4 server = task->servers[task->server_idx];
  const auto txid = static_cast<std::uint16_t>(rng_.uniform(1, 0xFFFF));
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= 65535 ? 49152 : static_cast<std::uint16_t>(next_port_ + 1);

  const auto generation = next_generation_++;
  task->generation = generation;

  // 0x20: flip the case of each letter randomly; the authoritative
  // server must echo the exact spelling back.
  dnswire::Name cased = task->current_name;
  if (cfg_.case_randomization) {
    std::vector<std::string> labels = cased.labels();
    for (auto& label : labels) {
      for (auto& ch : label) {
        if (ch >= 'a' && ch <= 'z' && rng_.chance(0.5)) {
          ch = static_cast<char>(ch - 'a' + 'A');
        } else if (ch >= 'A' && ch <= 'Z' && rng_.chance(0.5)) {
          ch = static_cast<char>(ch - 'A' + 'a');
        }
      }
    }
    if (auto rebuilt = dnswire::Name::from_labels(std::move(labels))) {
      cased = *rebuilt;
    }
  }
  // Key collision (the port pool wrapped within one timeout window):
  // the displaced query can no longer match a response or its typed
  // timeout — its timer would find this entry and bail on the
  // generation check — so treat it as lost right now to keep its task
  // making progress.
  if (auto displaced_it = pending_upstream_.find(pending_key(port, txid));
      displaced_it != pending_upstream_.end()) {
    const TaskPtr displaced = displaced_it->second.task;
    const auto displaced_gen = displaced->generation;
    pending_upstream_.erase(displaced_it);
    if (!displaced->done && displaced != task) {
      on_upstream_timeout(displaced, displaced_gen);
    }
  }
  pending_upstream_[pending_key(port, txid)] = PendingUpstream{task, cased};

  const auto question = scratch_arena().alloc_array<QuestionView>(1);
  question[0].name = dnswire::view_of(scratch_arena(), cased);
  question[0].type = task->original.type;
  MessageView q;
  q.header.id = txid;
  q.questions = question;
  ++stats_.upstream_queries;
  send_view(server, port, kDnsPort, q);

  sim().schedule_timer(cfg_.upstream_timeout, this, generation,
                       pending_key(port, txid));
}

void RecursiveResolver::on_timer(std::uint64_t generation, std::uint64_t key) {
  // No datagram view is live inside a timer, so the scratch arena the
  // retry or SERVFAIL replies are built in can start over.
  scratch_arena().reset();
  auto it = pending_upstream_.find(static_cast<std::uint32_t>(key));
  if (it == pending_upstream_.end()) return;  // answered already
  const TaskPtr task = it->second.task;
  if (task->done || task->generation != generation) return;
  pending_upstream_.erase(it);
  on_upstream_timeout(task, generation);
}

void RecursiveResolver::on_upstream_timeout(const TaskPtr& task,
                                            std::uint64_t /*generation*/) {
  ++stats_.upstream_timeouts;
  if (task->retries_left > 0) {
    --task->retries_left;
    query_current_server(task);
    return;
  }
  advance_server(task);
}

void RecursiveResolver::advance_server(const TaskPtr& task) {
  ++task->server_idx;
  task->retries_left = cfg_.max_retries;
  if (task->server_idx >= task->servers.size()) {
    finish_servfail(task);
    return;
  }
  query_current_server(task);
}

void RecursiveResolver::handle_upstream_response(const netsim::Datagram& dgram,
                                                 const MessageView& msg) {
  auto it = pending_upstream_.find(pending_key(dgram.dst_port, msg.header.id));
  if (it == pending_upstream_.end()) return;  // late or off-path response
  // 0x20 validation: the echoed question must match the exact case we
  // sent. An off-path forger guessing (port, txid) still fails here
  // with probability 2^-letters.
  if (cfg_.case_randomization) {
    if (msg.questions.size() != 1 ||
        !same_labels_exact(msg.questions.front().name,
                           it->second.cased_name)) {
      ++stats_.rejected_0x20;
      return;  // keep the transaction pending; the real answer may come
    }
  }
  TaskPtr task = it->second.task;
  pending_upstream_.erase(it);
  if (task->done) return;
  task->generation = next_generation_++;  // cancel the timeout

  if (msg.header.rcode == Rcode::nxdomain) {
    cache_.put_negative(task->current_name, task->original.type,
                        Rcode::nxdomain, negative_ttl_of(msg), sim().now());
    finish_negative(task, Rcode::nxdomain);
    return;
  }
  if (msg.header.rcode != Rcode::noerror) {
    advance_server(task);
    return;
  }

  // Collect answers matching the current name; only records the
  // resolver keeps are materialized.
  std::vector<ResourceRecord> direct;
  const RecordView* cname = nullptr;
  for (const auto& rr : msg.answers) {
    if (!rr.name.equals(task->current_name)) continue;
    if (rr.type == task->original.type) {
      direct.push_back(dnswire::materialize(rr));
    } else if (rr.type == RrType::cname) {
      cname = &rr;
    }
  }

  if (!direct.empty()) {
    cache_.put(task->current_name, task->original.type, direct, sim().now());
    finish_positive(task, std::move(direct));
    return;
  }

  if (cname != nullptr) {
    if (++task->cname_depth > cfg_.max_cname_depth) {
      finish_servfail(task);
      return;
    }
    ResourceRecord record = dnswire::materialize(*cname);
    cache_.put(task->current_name, RrType::cname, {record}, sim().now());
    task->current_name = std::get<CnameRecord>(record.rdata).target;
    task->cname_chain.push_back(std::move(record));
    begin_iteration(task);
    return;
  }

  // Referral? Cache the delegation and descend.
  std::vector<ResourceRecord> ns_records;
  for (const auto& rr : msg.authorities) {
    if (rr.type == RrType::ns) ns_records.push_back(dnswire::materialize(rr));
  }
  if (!ns_records.empty()) {
    if (++task->referrals > cfg_.max_referrals) {
      finish_servfail(task);
      return;
    }
    cache_.put(ns_records.front().name, RrType::ns, ns_records, sim().now());
    std::vector<util::Ipv4> next_servers;
    for (const auto& rr : msg.additionals) {
      if (rr.rdata.tag == RdataView::Tag::a) {
        cache_.put(rr.name.to_name(), RrType::a, {dnswire::materialize(rr)},
                   sim().now());
        next_servers.push_back(rr.rdata.a_addr);
      }
    }
    if (next_servers.empty()) {
      // Glueless delegation: unsupported fallback — try remaining
      // servers, else fail. (Our topologies always provide glue.)
      advance_server(task);
      return;
    }
    task->servers = std::move(next_servers);
    task->server_idx = 0;
    task->retries_left = cfg_.max_retries;
    query_current_server(task);
    return;
  }

  // NODATA.
  cache_.put_negative(task->current_name, task->original.type, Rcode::noerror,
                      negative_ttl_of(msg), sim().now());
  finish_negative(task, Rcode::noerror);
}

void RecursiveResolver::finish_positive(const TaskPtr& task,
                                        std::vector<ResourceRecord> answers) {
  std::vector<ResourceRecord> full = task->cname_chain;
  full.insert(full.end(), answers.begin(), answers.end());
  respond_all(task, Rcode::noerror, full);
}

void RecursiveResolver::finish_negative(const TaskPtr& task, Rcode rcode) {
  respond_all(task, rcode, task->cname_chain);
}

void RecursiveResolver::finish_servfail(const TaskPtr& task) {
  ++stats_.servfails;
  ++counters_.servfail;
  respond_all(task, Rcode::servfail, {});
}

void RecursiveResolver::respond_all(
    const TaskPtr& task, Rcode rcode,
    const std::vector<ResourceRecord>& answers) {
  task->done = true;
  if (auto it = inflight_.find(
          NameKey(task->original.name.labels(), task->original.type).bytes());
      it != inflight_.end()) {
    inflight_.erase(it);
  }
  // One question and answer section for every client; each reply
  // differs only in its header.
  dnswire::WireArena& arena = scratch_arena();
  const auto question = arena.alloc_array<QuestionView>(1);
  question[0].name = dnswire::view_of(arena, task->original.name);
  question[0].type = task->original.type;
  question[0].klass = task->original.klass;
  const auto records = arena.alloc_array<RecordView>(answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    records[i] = dnswire::view_of(arena, answers[i]);
  }
  for (const auto& client : task->clients) {
    MessageView resp;
    resp.header.id = client.txid;
    resp.header.qr = true;
    resp.header.rd = client.recursion_desired;
    resp.header.ra = true;
    resp.header.rcode = rcode;
    resp.questions = question;
    resp.answers = records;
    const util::Ipv4 reply_src = cfg_.service_addr.value_or(client.arrival_dst);
    send_client_response(client.addr, client.port, resp, reply_src);
  }
}

}  // namespace odns::nodes

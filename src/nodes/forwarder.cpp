#include "nodes/forwarder.hpp"

#include <algorithm>

namespace odns::nodes {

using dnswire::MessageView;
using dnswire::NameKey;
using dnswire::QuestionView;
using dnswire::Rcode;
using dnswire::RdataView;
using dnswire::RecordView;

RecursiveForwarder::RecursiveForwarder(netsim::Simulator& sim,
                                       netsim::HostId host,
                                       ForwarderConfig cfg)
    : DnsNode(sim, host), cfg_(cfg) {}

void RecursiveForwarder::start() {
  sim().bind_udp(host(), kDnsPort, this);
  sim().bind_udp_wildcard(host(), this);
}

bool RecursiveForwarder::on_message_view(const netsim::Datagram& dgram,
                                         const MessageView& msg) {
  if (dgram.dst_port == kDnsPort && !msg.header.qr) {
    handle_query(dgram, msg);
  } else if (dgram.dst_port != kDnsPort && msg.header.qr) {
    handle_response(dgram, msg);
  }
  return true;
}

void RecursiveForwarder::handle_query(const netsim::Datagram& dgram,
                                      const MessageView& msg) {
  ++fstats_.client_queries;
  if (msg.questions.size() != 1) {
    reply_view(dgram, dnswire::make_response(msg, Rcode::formerr));
    return;
  }
  const QuestionView& q = msg.questions.front();

  if (cfg_.cache_responses) {
    if (auto hit = cache_.find(NameKey(q.name.labels, q.type), sim().now());
        hit && !hit->negative) {
      ++fstats_.cache_answers;
      MessageView resp = dnswire::make_response(msg);
      resp.header.ra = true;
      resp.answers = hit->answer_views(scratch_arena());
      reply_view(dgram, resp);
      return;
    }
  }

  Pending p;
  p.client = dgram.src;
  p.client_port = dgram.src_port;
  p.client_txid = msg.header.id;
  p.arrival_dst = dgram.dst;
  p.question = dnswire::Question{q.name.to_name(), q.type, q.klass};
  p.deadline = sim().now() + cfg_.upstream_timeout;

  // Source substitution happens implicitly: the upstream query leaves
  // with this host's own address — the defining difference from a
  // transparent forwarder.
  const std::uint16_t port = next_port_;
  next_port_ = next_port_ >= 65535 ? 32768 : static_cast<std::uint16_t>(next_port_ + 1);
  const std::uint16_t txid = next_txid_++;
  pending_[key(port, txid)] = std::move(p);
  ++fstats_.forwarded;

  // A standard recursive query for the client's question (class IN).
  const auto question = scratch_arena().alloc_array<QuestionView>(1);
  question[0].name = q.name;
  question[0].type = q.type;
  MessageView upstream;
  upstream.header.id = txid;
  upstream.header.rd = true;
  upstream.questions = question;
  send_view(cfg_.upstream, port, kDnsPort, upstream);
}

void RecursiveForwarder::handle_response(const netsim::Datagram& dgram,
                                         const MessageView& msg) {
  auto it = pending_.find(key(dgram.dst_port, msg.header.id));
  if (it == pending_.end()) return;
  const Pending p = std::move(it->second);
  pending_.erase(it);
  ++fstats_.upstream_responses;
  if (sim().now() > p.deadline) {
    ++fstats_.expired;
    return;
  }
  if (cfg_.cache_responses && msg.header.rcode == Rcode::noerror &&
      !msg.answers.empty()) {
    std::vector<dnswire::ResourceRecord> records;
    records.reserve(msg.answers.size());
    for (const auto& rr : msg.answers) {
      records.push_back(dnswire::materialize(rr));
    }
    cache_.put(p.question.name, p.question.type, records, sim().now());
  }

  const auto rewrite = cfg_.rewrite_answers
                           ? std::optional<util::Ipv4>(cfg_.rewrite_target)
                           : std::nullopt;
  send_view(p.client, kDnsPort, p.client_port,
            relayed_answer(scratch_arena(), msg, p.client_txid, rewrite,
                           cfg_.strip_second_record),
            p.arrival_dst);
}

MessageView relayed_answer(dnswire::WireArena& arena,
                           const MessageView& upstream,
                           std::uint16_t client_id,
                           std::optional<util::Ipv4> rewrite_target,
                           bool strip) {
  MessageView resp = upstream;
  resp.header.id = client_id;
  if (rewrite_target) {
    const auto answers = arena.alloc_array<RecordView>(resp.answers.size());
    std::copy(resp.answers.begin(), resp.answers.end(), answers.begin());
    for (auto& rr : answers) {
      if (rr.rdata.tag == RdataView::Tag::a) rr.rdata.a_addr = *rewrite_target;
    }
    resp.answers = answers;
  }
  if (strip && resp.answers.size() > 1) resp.answers = resp.answers.first(1);
  return resp;
}

}  // namespace odns::nodes

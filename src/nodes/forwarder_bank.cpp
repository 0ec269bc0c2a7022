#include "nodes/forwarder_bank.hpp"

#include <algorithm>
#include <cassert>

#include "nodes/dns_node.hpp"

namespace odns::nodes {

using dnswire::MessageView;
using dnswire::QuestionView;

namespace {
constexpr std::uint8_t kRewrite = 1;
constexpr std::uint8_t kStrip = 2;
constexpr std::uint16_t kPortBase = 32768;
constexpr std::uint32_t kPortSpan = 32768;
}  // namespace

ForwarderBank::ForwarderBank(netsim::Simulator& sim,
                             util::Duration upstream_timeout)
    : sim_(&sim), upstream_timeout_(upstream_timeout) {}

void ForwarderBank::add_member(netsim::HostId host, const MemberConfig& mc) {
  assert(!sealed_);
  addr_.push_back(mc.addr);
  upstream_.push_back(mc.upstream);
  rewrite_target_.push_back(mc.rewrite_target);
  host_.push_back(host);
  seq_.push_back(0);
  flags_.push_back(static_cast<std::uint8_t>(
      (mc.rewrite_answers ? kRewrite : 0) |
      (mc.strip_second_record ? kStrip : 0)));
  sim_->bind_udp(host, kDnsPort, this);
  sim_->bind_udp_wildcard(host, this);
}

void ForwarderBank::seal() {
  pending_.resize(64);
  by_addr_.resize(addr_.size());
  for (std::uint32_t i = 0; i < by_addr_.size(); ++i) by_addr_[i] = i;
  std::sort(by_addr_.begin(), by_addr_.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return addr_[a].value() < addr_[b].value();
            });
  sealed_ = true;
}

std::size_t ForwarderBank::member_of(util::Ipv4 addr) const {
  auto it = std::lower_bound(by_addr_.begin(), by_addr_.end(), addr.value(),
                             [this](std::uint32_t i, std::uint32_t value) {
                               return addr_[i].value() < value;
                             });
  if (it == by_addr_.end() || addr_[*it].value() != addr.value()) {
    return addr_.size();
  }
  return *it;
}

void ForwarderBank::on_datagram(const netsim::Datagram& dgram) {
  assert(sealed_);
  arena_.reset();
  const auto parsed = dnswire::decode_into(
      arena_, std::span<const std::uint8_t>(*dgram.payload));
  if (!parsed) return;
  const MessageView& msg = parsed.value();
  if (dgram.dst_port == kDnsPort && !msg.header.qr) {
    const std::size_t member = member_of(dgram.dst);
    if (member == addr_.size()) return;  // not a member address
    handle_query(dgram, member, msg);
  } else if (dgram.dst_port != kDnsPort && msg.header.qr) {
    handle_response(dgram, msg);
  }
}

void ForwarderBank::handle_query(const netsim::Datagram& dgram,
                                 std::size_t member, const MessageView& msg) {
  ++stats_.client_queries;
  if (msg.questions.size() != 1) return;  // banks don't answer formerr

  // Index-derived upstream tuple: member m's queries always use ports
  // kPortBase + (m*256+seq) % 32768 and txids 1 + (m*256+seq) / 32768,
  // so the wire bytes depend only on the member's own query sequence.
  const std::uint32_t g = tuple_of(static_cast<std::uint32_t>(member),
                                   seq_[member]);
  seq_[member] = static_cast<std::uint8_t>(seq_[member] + 1);
  const auto port = static_cast<std::uint16_t>(kPortBase + g % kPortSpan);
  const auto txid = static_cast<std::uint16_t>(1 + (g / kPortSpan) % 65535);

  if (pending_count_ >= sweep_at_) sweep_expired();
  Pending& p = insert_slot(g);
  p.client = dgram.src;
  p.client_port = dgram.src_port;
  p.client_txid = msg.header.id;
  p.member = static_cast<std::uint32_t>(member);
  p.deadline = sim_->now() + upstream_timeout_;
  peak_pending_ = std::max(peak_pending_, pending_count_);
  ++stats_.forwarded;

  // The upstream query is a standard recursive query for the client's
  // question (class IN), under the member's tuple.
  const auto question = arena_.alloc_array<QuestionView>(1);
  question[0].name = msg.questions.front().name;
  question[0].type = msg.questions.front().type;
  MessageView query;
  query.header.id = txid;
  query.header.rd = true;
  query.questions = question;
  netsim::SendOptions opts;
  opts.dst = upstream_[member];
  opts.src_port = port;
  opts.dst_port = kDnsPort;
  sim_->send_udp(host_[member], std::move(opts),
                 dnswire::encode_into(arena_, query));
}

void ForwarderBank::handle_response(const netsim::Datagram& dgram,
                                    const MessageView& msg) {
  // Invert the tuple derivation to recover the pending key directly.
  if (dgram.dst_port < kPortBase || msg.header.id == 0) return;
  const std::uint32_t g =
      static_cast<std::uint32_t>(msg.header.id - 1) * kPortSpan +
      (dgram.dst_port - kPortBase);
  const std::size_t slot = slot_of(g);
  if (pending_[slot].g != g) return;
  const Pending p = pending_[slot];
  erase_slot(slot);
  ++stats_.upstream_responses;
  if (sim_->now() > p.deadline) {
    ++stats_.expired;
    return;
  }

  const std::uint8_t flags = flags_[p.member];
  const auto rewrite =
      (flags & kRewrite) != 0
          ? std::optional<util::Ipv4>(rewrite_target_[p.member])
          : std::nullopt;
  const MessageView resp = relayed_answer(arena_, msg, p.client_txid, rewrite,
                                          (flags & kStrip) != 0);
  netsim::SendOptions opts;
  opts.dst = p.client;
  opts.src_port = kDnsPort;
  opts.dst_port = p.client_port;
  sim_->send_udp(host_[p.member], std::move(opts),
                 dnswire::encode_into(arena_, resp));
}

void ForwarderBank::sweep_expired() {
  const util::SimTime now = sim_->now();
  for (std::size_t slot = 0; slot < pending_.size();) {
    // Backward-shift deletion refills `slot` only from later probe
    // positions, so re-examining it before moving on visits every
    // entry.
    if (pending_[slot].g != kFree && now > pending_[slot].deadline) {
      ++stats_.expired;
      erase_slot(slot);
    } else {
      ++slot;
    }
  }
  sweep_at_ = std::max<std::size_t>(64, pending_count_ * 2);
}

std::size_t ForwarderBank::home_of(std::uint32_t g) const {
  // Fibonacci hashing onto the power-of-two table.
  return static_cast<std::size_t>((g * 0x9E3779B97F4A7C15ull) >> 32) &
         (pending_.size() - 1);
}

std::size_t ForwarderBank::slot_of(std::uint32_t g) const {
  std::size_t slot = home_of(g);
  while (pending_[slot].g != kFree && pending_[slot].g != g) {
    slot = (slot + 1) & (pending_.size() - 1);
  }
  return slot;
}

ForwarderBank::Pending& ForwarderBank::insert_slot(std::uint32_t g) {
  if ((pending_count_ + 1) * 2 > pending_.size()) {
    // Grow at half load: rehash every live entry into a table twice as
    // large (the only allocation on this path).
    std::vector<Pending> old(pending_.size() * 2);
    old.swap(pending_);
    pending_count_ = 0;
    for (const Pending& p : old) {
      if (p.g != kFree) insert_slot(p.g) = p;
    }
  }
  Pending& p = pending_[slot_of(g)];
  if (p.g == kFree) ++pending_count_;
  p.g = g;
  return p;
}

void ForwarderBank::erase_slot(std::size_t slot) {
  const std::size_t mask = pending_.size() - 1;
  std::size_t hole = slot;
  for (std::size_t next = (hole + 1) & mask; pending_[next].g != kFree;
       next = (next + 1) & mask) {
    // An entry may fill the hole only if the hole lies on its probe
    // path, i.e. between its home slot and its current slot.
    const std::size_t home = home_of(pending_[next].g);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      pending_[hole] = pending_[next];
      hole = next;
    }
  }
  pending_[hole] = Pending{};
  --pending_count_;
}

}  // namespace odns::nodes

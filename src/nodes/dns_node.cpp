#include "nodes/dns_node.hpp"

namespace odns::nodes {

void DnsNode::on_datagram(const netsim::Datagram& dgram) {
  ++counters_.datagrams_in;
  const dnswire::ArenaLease lease;
  auto parsed = dnswire::decode_into(
      lease.set.rx, std::span<const std::uint8_t>(*dgram.payload));
  if (!parsed) {
    ++counters_.parse_errors;
    return;
  }
  const dnswire::MessageView& view = parsed.value();
  if (view.header.qr) {
    ++counters_.responses_in;
  } else {
    ++counters_.queries_in;
  }
  if (on_message_view(dgram, view)) return;
  on_message(dgram, dnswire::materialize(view));
}

void DnsNode::send_message(util::Ipv4 dst, std::uint16_t src_port,
                           std::uint16_t dst_port, const dnswire::Message& msg,
                           std::optional<util::Ipv4> src_override) {
  // view_of borrows the Message's own label storage, so nothing is
  // copied on the way in.
  dnswire::WireArena& tx = dnswire::ArenaSet::this_thread().tx;
  tx.reset();
  send_encoded(dst, src_port, dst_port, dnswire::view_of(tx, msg),
               src_override);
}

void DnsNode::send_view(util::Ipv4 dst, std::uint16_t src_port,
                        std::uint16_t dst_port, const dnswire::MessageView& msg,
                        std::optional<util::Ipv4> src_override) {
  dnswire::ArenaSet::this_thread().tx.reset();
  send_encoded(dst, src_port, dst_port, msg, src_override);
}

void DnsNode::send_encoded(util::Ipv4 dst, std::uint16_t src_port,
                           std::uint16_t dst_port,
                           const dnswire::MessageView& msg,
                           std::optional<util::Ipv4> src_override) {
  netsim::SendOptions opts;
  opts.dst = dst;
  opts.src_port = src_port;
  opts.dst_port = dst_port;
  opts.spoof_src = src_override;
  if (msg.header.qr) {
    ++counters_.responses_out;
  } else {
    ++counters_.queries_out;
  }
  dnswire::WireArena& tx = dnswire::ArenaSet::this_thread().tx;
  sim_->send_udp(host_, std::move(opts), dnswire::encode_into(tx, msg));
}

void DnsNode::reply(const netsim::Datagram& dgram, const dnswire::Message& msg,
                    std::optional<util::Ipv4> src_override) {
  // Reply source defaults to the address the query arrived on, which is
  // what distinguishes sensor 1 (same address) from sensor 2 (different
  // address) in the controlled experiment.
  send_message(dgram.src, /*src_port=*/dgram.dst_port,
               /*dst_port=*/dgram.src_port, msg,
               src_override.has_value() ? src_override
                                        : std::optional<util::Ipv4>(dgram.dst));
}

void DnsNode::reply_view(const netsim::Datagram& dgram,
                         const dnswire::MessageView& msg,
                         std::optional<util::Ipv4> src_override) {
  send_view(dgram.src, /*src_port=*/dgram.dst_port,
            /*dst_port=*/dgram.src_port, msg,
            src_override.has_value() ? src_override
                                     : std::optional<util::Ipv4>(dgram.dst));
}

}  // namespace odns::nodes

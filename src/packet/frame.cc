#include "packet/frame.h"

#include "packet/frame_view.h"

#include "util/strings.h"

namespace gq::pkt {

std::uint16_t DecodedFrame::src_port() const {
  if (tcp) return tcp->src_port;
  if (udp) return udp->src_port;
  return 0;
}

std::uint16_t DecodedFrame::dst_port() const {
  if (tcp) return tcp->dst_port;
  if (udp) return udp->dst_port;
  return 0;
}

std::vector<std::uint8_t> DecodedFrame::encode() const {
  if (arp) return build_arp(eth, *arp);
  if (!ip) return build_eth(eth);
  if (tcp) return build_tcp(eth, *ip, *tcp, tcp->payload);
  if (udp) return build_udp(eth, *ip, *udp, udp->payload);
  if (icmp) return build_icmp(eth, *ip, *icmp, icmp->payload);
  return build_ipv4(eth, *ip, ip->payload);
}

std::string DecodedFrame::summary() const {
  if (arp) {
    return util::format(
        "ARP %s %s -> %s",
        arp->op == ArpMessage::Op::kRequest ? "who-has" : "is-at",
        arp->sender_ip.str().c_str(), arp->target_ip.str().c_str());
  }
  if (ip && tcp) {
    std::string flags;
    if (tcp->syn()) flags += 'S';
    if (tcp->fin()) flags += 'F';
    if (tcp->rst()) flags += 'R';
    if (tcp->has_ack()) flags += 'A';
    return util::format("%s:%u > %s:%u TCP %s len=%zu", ip->src.str().c_str(),
                        tcp->src_port, ip->dst.str().c_str(), tcp->dst_port,
                        flags.c_str(), tcp->payload.size());
  }
  if (ip && udp) {
    return util::format("%s:%u > %s:%u UDP len=%zu", ip->src.str().c_str(),
                        udp->src_port, ip->dst.str().c_str(), udp->dst_port,
                        udp->payload.size());
  }
  if (ip) {
    return util::format("%s > %s proto=%u", ip->src.str().c_str(),
                        ip->dst.str().c_str(), ip->protocol);
  }
  return "eth frame";
}

std::optional<DecodedFrame> decode_frame(
    std::span<const std::uint8_t> bytes) {
  std::span<const std::uint8_t> payload;
  auto eth = parse_eth(bytes, &payload);
  if (!eth) return std::nullopt;
  DecodedFrame frame;
  frame.eth = *eth;
  if (eth->ethertype == kEtherTypeArp) {
    frame.arp = parse_arp(payload);
  } else if (eth->ethertype == kEtherTypeIpv4) {
    frame.ip = parse_ipv4(payload);
    if (frame.ip) {
      if (frame.ip->protocol == kProtoTcp) {
        frame.tcp = parse_tcp(frame.ip->src, frame.ip->dst, frame.ip->payload);
      } else if (frame.ip->protocol == kProtoUdp) {
        frame.udp = parse_udp(frame.ip->src, frame.ip->dst, frame.ip->payload);
      } else if (frame.ip->protocol == kProtoIcmp) {
        frame.icmp = parse_icmp(frame.ip->payload);
      }
    }
  }
  return frame;
}

std::string FlowKey::str() const {
  return util::format("%s > %s/%s", src.str().c_str(), dst.str().c_str(),
                      proto == FlowProto::kTcp ? "tcp" : "udp");
}

std::optional<FlowKey> flow_key_of(const DecodedFrame& frame) {
  if (!frame.ip) return std::nullopt;
  if (frame.tcp) {
    return FlowKey{FlowProto::kTcp,
                   {frame.ip->src, frame.tcp->src_port},
                   {frame.ip->dst, frame.tcp->dst_port}};
  }
  if (frame.udp) {
    return FlowKey{FlowProto::kUdp,
                   {frame.ip->src, frame.udp->src_port},
                   {frame.ip->dst, frame.udp->dst_port}};
  }
  return std::nullopt;
}

}  // namespace gq::pkt

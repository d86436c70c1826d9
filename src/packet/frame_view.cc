#include "packet/frame_view.h"

#include <cstring>

#include "packet/checksum.h"

namespace gq::pkt {

namespace {

constexpr std::size_t kEthHeader = 14;
constexpr std::size_t kVlanTag = 4;
constexpr std::size_t kTypeOffset = 12;
constexpr std::size_t kArpFrame = kEthHeader + 28;

std::uint16_t get16(const std::uint8_t* at) {
  return static_cast<std::uint16_t>((at[0] << 8) | at[1]);
}

void put16(std::uint8_t* at, std::uint16_t v) {
  at[0] = static_cast<std::uint8_t>(v >> 8);
  at[1] = static_cast<std::uint8_t>(v);
}

void put32(std::uint8_t* at, std::uint32_t v) {
  put16(at, static_cast<std::uint16_t>(v >> 16));
  put16(at + 2, static_cast<std::uint16_t>(v));
}

void put_mac(std::uint8_t* at, const util::MacAddr& mac) {
  std::memcpy(at, mac.bytes().data(), 6);
}

// The IPv4 address at `at` of an untagged IPv4 frame.
std::optional<util::Ipv4Addr> ipv4_addr_at(std::span<const std::uint8_t> bytes,
                                           std::size_t at) {
  if (bytes.size() < kEthHeader + 20 ||
      get16(&bytes[kTypeOffset]) != kEtherTypeIpv4)
    return std::nullopt;
  return util::Ipv4Addr((std::uint32_t{get16(&bytes[at])} << 16) |
                        get16(&bytes[at + 2]));
}

// A frame of the L2 header, written with `ethertype`, then `headers`
// zeroed bytes for the caller to fill, then `payload`; `l3` receives the
// offset behind the L2 header.
std::vector<std::uint8_t> start_frame(const EthHeader& eth,
                                      std::uint16_t ethertype,
                                      std::size_t headers,
                                      std::span<const std::uint8_t> payload,
                                      std::size_t& l3) {
  l3 = eth.vlan ? kEthHeader + kVlanTag : kEthHeader;
  std::vector<std::uint8_t> bytes;
  // Room for insert_vlan_tag.
  bytes.reserve(l3 + headers + payload.size() + kVlanTag);
  bytes.resize(l3 + headers);
  put_mac(bytes.data(), eth.dst);
  put_mac(bytes.data() + 6, eth.src);
  if (eth.vlan) {
    put16(bytes.data() + kTypeOffset, kEtherTypeVlan);
    put16(bytes.data() + kTypeOffset + 2, *eth.vlan & 0x0FFF);  // PCP/DEI 0.
  }
  put16(bytes.data() + l3 - 2, ethertype);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  return bytes;
}

// An IPv4 frame with the L2 and IP headers written and `payload` behind
// room for an `l4_header`-byte L4 header, whose offset `l4` receives.
std::vector<std::uint8_t> start_ipv4(const EthHeader& eth,
                                     const Ipv4Header& ip,
                                     std::uint8_t protocol,
                                     std::size_t l4_header,
                                     std::span<const std::uint8_t> payload,
                                     std::size_t& l4) {
  std::size_t l3 = 0;
  auto bytes =
      start_frame(eth, kEtherTypeIpv4, 20 + l4_header, payload, l3);
  const std::size_t total = 20 + l4_header + payload.size();
  std::uint8_t* h = bytes.data() + l3;
  h[0] = 0x45;  // Version 4, IHL 5; DSCP/ECN and flags/fragment stay 0.
  put16(h + 2, static_cast<std::uint16_t>(total));
  put16(h + 4, ip.ident);
  h[8] = ip.ttl;
  h[9] = protocol;
  put32(h + 12, ip.src.value());
  put32(h + 16, ip.dst.value());
  put16(h + 10, checksum({h, 20}));
  l4 = l3 + 20;
  return bytes;
}

}  // namespace

std::optional<FrameView> FrameView::parse(std::span<std::uint8_t> bytes,
                                          ViewVerify verify) {
  if (bytes.size() < kEthHeader + 20) return std::nullopt;
  FrameView view;
  view.base_ = bytes.data();
  std::size_t l3 = kEthHeader;
  std::uint16_t ethertype = view.rd16(kTypeOffset);
  if (ethertype == kEtherTypeVlan) {
    if (bytes.size() < kEthHeader + kVlanTag + 20) return std::nullopt;
    view.vlan_ = view.rd16(kTypeOffset + 2) & 0x0FFF;
    ethertype = view.rd16(kTypeOffset + 4);
    l3 = kEthHeader + kVlanTag;
  }
  if (ethertype != kEtherTypeIpv4) return std::nullopt;
  view.l3_ = static_cast<std::uint16_t>(l3);

  // Canonical IPv4 header: version 4, IHL 5, DSCP/ECN zero, unfragmented,
  // and a total length that exactly covers the rest of the buffer (the
  // builder never pads).
  if (view.base_[l3] != 0x45 || view.base_[l3 + 1] != 0) return std::nullopt;
  const std::uint16_t total_len = view.rd16(l3 + 2);
  if (view.rd16(l3 + 6) != 0) return std::nullopt;  // Flags/fragment.
  if (total_len < 20 || l3 + total_len != bytes.size()) return std::nullopt;
  view.proto_ = view.base_[l3 + 9];
  const std::size_t l4 = l3 + 20;
  const std::uint32_t l4_len = total_len - 20u;

  if (view.proto_ == kProtoTcp) {
    if (l4_len < 20) return std::nullopt;
    // Data offset 5, reserved bits zero, urgent pointer zero — exactly
    // what build_tcp emits.
    if (view.base_[l4 + 12] != 0x50) return std::nullopt;
    if (view.rd16(l4 + 18) != 0) return std::nullopt;
    view.l4_csum_ = static_cast<std::uint16_t>(l4 + 16);
    view.payload_len_ = l4_len - 20u;
  } else if (view.proto_ == kProtoUdp) {
    if (l4_len < 8) return std::nullopt;
    if (view.rd16(l4 + 4) != l4_len) return std::nullopt;  // UDP length.
    // A zero checksum means "none" (RFC 768); re-encoding would add one,
    // so such frames are not canonical.
    if (view.rd16(l4 + 6) == 0) return std::nullopt;
    view.l4_csum_ = static_cast<std::uint16_t>(l4 + 6);
    view.payload_len_ = l4_len - 8u;
  } else {
    return std::nullopt;
  }
  view.l4_ = static_cast<std::uint16_t>(l4);

  if (verify != ViewVerify::kNone) {
    if (checksum(bytes.subspan(l3, 20)) != 0) return std::nullopt;
    if (verify == ViewVerify::kFull) {
      const auto segment = bytes.subspan(l4, l4_len);
      const std::uint16_t csum =
          l4_checksum(view.ip_src(), view.ip_dst(), view.proto_, segment);
      if (csum != 0) return std::nullopt;
    }
  }
  return view;
}

void FrameView::l4_csum_update32(std::uint32_t old_word,
                                 std::uint32_t new_word) {
  std::uint16_t csum = checksum_update32(rd16(l4_csum_), old_word, new_word);
  // build_udp maps a computed zero to 0xFFFF (RFC 768); mirror it so an
  // in-place rewrite stays byte-identical to a rebuild.
  if (proto_ == kProtoUdp && csum == 0) csum = 0xFFFF;
  wr16(l4_csum_, csum);
}

void FrameView::set_ip_addr(std::size_t at, util::Ipv4Addr addr) {
  const std::uint32_t old_word = rd32(at);
  const std::uint32_t new_word = addr.value();
  if (old_word == new_word) return;
  wr32(at, new_word);
  // The address is covered by both the IP header checksum and the L4
  // pseudo-header checksum.
  wr16(l3_ + 10, checksum_update32(rd16(l3_ + 10), old_word, new_word));
  l4_csum_update32(old_word, new_word);
}

void FrameView::set_l4_u16(std::size_t at, std::uint16_t v) {
  const std::uint16_t old_word = rd16(at);
  if (old_word == v) return;
  wr16(at, v);
  l4_csum_update32(old_word, v);
}

void FrameView::set_l4_u32(std::size_t at, std::uint32_t v) {
  const std::uint32_t old_word = rd32(at);
  if (old_word == v) return;
  wr32(at, v);
  l4_csum_update32(old_word, v);
}

std::vector<std::uint8_t> build_arp(const EthHeader& eth,
                                    const ArpMessage& arp) {
  std::size_t l3 = 0;
  auto bytes = start_frame(eth, kEtherTypeArp, 28, {}, l3);
  std::uint8_t* a = bytes.data() + l3;
  put16(a, 1);                   // HTYPE: Ethernet.
  put16(a + 2, kEtherTypeIpv4);  // PTYPE: IPv4.
  a[4] = 6;                      // HLEN.
  a[5] = 4;                      // PLEN.
  put16(a + 6, static_cast<std::uint16_t>(arp.op));
  put_mac(a + 8, arp.sender_mac);
  put32(a + 14, arp.sender_ip.value());
  put_mac(a + 18, arp.target_mac);
  put32(a + 24, arp.target_ip.value());
  return bytes;
}

std::vector<std::uint8_t> build_tcp(const EthHeader& eth,
                                    const Ipv4Header& ip,
                                    const TcpHeader& tcp,
                                    std::span<const std::uint8_t> payload) {
  std::size_t l4 = 0;
  auto bytes = start_ipv4(eth, ip, kProtoTcp, 20, payload, l4);
  std::uint8_t* t = bytes.data() + l4;
  put16(t, tcp.src_port);
  put16(t + 2, tcp.dst_port);
  put32(t + 4, tcp.seq);
  put32(t + 8, tcp.ack);
  t[12] = 0x50;  // Data offset 5 words; checksum and urgent pointer 0.
  t[13] = tcp.flags;
  put16(t + 14, tcp.window);
  put16(t + 16, l4_checksum(ip.src, ip.dst, kProtoTcp,
                            std::span(bytes).subspan(l4)));
  return bytes;
}

std::vector<std::uint8_t> build_udp(const EthHeader& eth,
                                    const Ipv4Header& ip,
                                    const UdpHeader& udp,
                                    std::span<const std::uint8_t> payload) {
  std::size_t l4 = 0;
  auto bytes = start_ipv4(eth, ip, kProtoUdp, 8, payload, l4);
  std::uint8_t* u = bytes.data() + l4;
  put16(u, udp.src_port);
  put16(u + 2, udp.dst_port);
  put16(u + 4, static_cast<std::uint16_t>(8 + payload.size()));
  const std::uint16_t csum =
      l4_checksum(ip.src, ip.dst, kProtoUdp, std::span(bytes).subspan(l4));
  put16(u + 6, csum == 0 ? 0xFFFF : csum);  // Zero means "none".
  return bytes;
}

std::vector<std::uint8_t> build_icmp(const EthHeader& eth,
                                     const Ipv4Header& ip,
                                     const IcmpHeader& icmp,
                                     std::span<const std::uint8_t> payload) {
  std::size_t l4 = 0;
  auto bytes = start_ipv4(eth, ip, kProtoIcmp, 8, payload, l4);
  std::uint8_t* c = bytes.data() + l4;
  c[0] = icmp.type;
  c[1] = icmp.code;
  put16(c + 4, icmp.ident);
  put16(c + 6, icmp.sequence);
  put16(c + 2, checksum(std::span(bytes).subspan(l4)));
  return bytes;
}

std::vector<std::uint8_t> build_ipv4(const EthHeader& eth,
                                     const Ipv4Header& ip,
                                     std::span<const std::uint8_t> payload) {
  std::size_t l4 = 0;
  return start_ipv4(eth, ip, ip.protocol, 0, payload, l4);
}

std::vector<std::uint8_t> build_eth(const EthHeader& eth) {
  std::size_t l3 = 0;
  return start_frame(eth, eth.ethertype, 0, {}, l3);
}

std::optional<Ingress> parse_ingress(std::vector<std::uint8_t>& bytes,
                                     ViewVerify verify) {
  Ingress in;
  in.view = FrameView::parse(bytes, verify);
  if (in.view && !in.view->vlan()) {
    in.ipv4 = true;
    return in;
  }
  if (bytes.size() == kArpFrame &&
      get16(&bytes[kTypeOffset]) == kEtherTypeArp) {
    in.arp = parse_arp(std::span(bytes).subspan(kEthHeader));
    if (in.arp) return in;
  }
  auto frame = decode_frame(bytes);
  if (!frame) return std::nullopt;
  frame->eth.vlan.reset();
  bytes = frame->encode();
  in.arp = std::move(frame->arp);
  in.icmp = std::move(frame->icmp);
  in.ipv4 = frame->ip.has_value();
  in.view.reset();
  if (frame->tcp || frame->udp) in.view = FrameView::parse(bytes, verify);
  return in;
}

std::optional<std::uint16_t> vlan_vid_of(
    std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kEthHeader + kVlanTag ||
      get16(&bytes[kTypeOffset]) != kEtherTypeVlan)
    return std::nullopt;
  return get16(&bytes[kTypeOffset + 2]) & 0x0FFF;
}

std::optional<util::Ipv4Addr> ipv4_dst_of(
    std::span<const std::uint8_t> bytes) {
  return ipv4_addr_at(bytes, kEthHeader + 16);
}

std::optional<util::Ipv4Addr> ipv4_src_of(
    std::span<const std::uint8_t> bytes) {
  return ipv4_addr_at(bytes, kEthHeader + 12);
}

void set_ipv4_dst(std::span<std::uint8_t> bytes, util::Ipv4Addr addr) {
  const auto old_addr = ipv4_dst_of(bytes);
  if (!old_addr) return;
  put32(&bytes[kEthHeader + 16], addr.value());
  std::uint8_t* csum = &bytes[kEthHeader + 10];
  put16(csum, checksum_update32(get16(csum), old_addr->value(), addr.value()));
}

void strip_vlan_tag(std::vector<std::uint8_t>& bytes) {
  if (!vlan_vid_of(bytes)) return;
  bytes.erase(bytes.begin() + kTypeOffset,
              bytes.begin() + kTypeOffset + kVlanTag);
}

void set_eth_addrs(std::vector<std::uint8_t>& bytes, const util::MacAddr& src,
                   const util::MacAddr& dst) {
  put_mac(bytes.data(), dst);
  put_mac(bytes.data() + 6, src);
}

void insert_vlan_tag(std::vector<std::uint8_t>& bytes, std::uint16_t vlan) {
  const std::uint8_t tag[kVlanTag] = {
      kEtherTypeVlan >> 8, kEtherTypeVlan & 0xFF,
      static_cast<std::uint8_t>((vlan & 0x0FFF) >> 8),
      static_cast<std::uint8_t>(vlan)};
  bytes.insert(bytes.begin() + kTypeOffset, tag, tag + kVlanTag);
}

}  // namespace gq::pkt

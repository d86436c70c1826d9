#include "packet/frame_view.h"

#include <cstring>

#include "packet/checksum.h"

namespace gq::pkt {

namespace {

constexpr std::size_t kEthHeader = 14;
constexpr std::size_t kVlanTag = 4;
constexpr std::size_t kTypeOffset = 12;

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
  // encoder never pads).
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
    // what serialize_tcp emits.
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
  // serialize_udp maps a computed zero to 0xFFFF (RFC 768); mirror it so
  // an in-place rewrite stays byte-identical to a re-encode.
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

std::optional<Ingress> parse_ingress(std::vector<std::uint8_t>& bytes,
                                     ViewVerify verify) {
  Ingress in;
  in.view = FrameView::parse(bytes, verify);
  if (in.view && !in.view->vlan()) {
    in.ipv4 = true;
    return in;
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
  if (bytes.size() < kEthHeader + kVlanTag) return std::nullopt;
  const std::uint16_t type = static_cast<std::uint16_t>(
      (bytes[kTypeOffset] << 8) | bytes[kTypeOffset + 1]);
  if (type != kEtherTypeVlan) return std::nullopt;
  return static_cast<std::uint16_t>(
      ((bytes[kTypeOffset + 2] << 8) | bytes[kTypeOffset + 3]) & 0x0FFF);
}

namespace {

std::optional<util::Ipv4Addr> ipv4_addr_at(std::span<const std::uint8_t> bytes,
                                           std::size_t at) {
  if (bytes.size() < kEthHeader + 20) return std::nullopt;
  const std::uint16_t type = static_cast<std::uint16_t>(
      (bytes[kTypeOffset] << 8) | bytes[kTypeOffset + 1]);
  if (type != kEtherTypeIpv4) return std::nullopt;
  return util::Ipv4Addr((static_cast<std::uint32_t>(bytes[at]) << 24) |
                        (static_cast<std::uint32_t>(bytes[at + 1]) << 16) |
                        (static_cast<std::uint32_t>(bytes[at + 2]) << 8) |
                        static_cast<std::uint32_t>(bytes[at + 3]));
}

}  // namespace

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
  const std::size_t at = kEthHeader + 16;
  const std::uint32_t v = addr.value();
  for (std::size_t i = 0; i < 4; ++i)
    bytes[at + i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  const std::size_t csum_at = kEthHeader + 10;
  const std::uint16_t csum = checksum_update32(
      static_cast<std::uint16_t>((bytes[csum_at] << 8) | bytes[csum_at + 1]),
      old_addr->value(), v);
  bytes[csum_at] = static_cast<std::uint8_t>(csum >> 8);
  bytes[csum_at + 1] = static_cast<std::uint8_t>(csum);
}

void strip_vlan_tag(std::vector<std::uint8_t>& bytes) {
  if (!vlan_vid_of(bytes)) return;
  bytes.erase(bytes.begin() + kTypeOffset,
              bytes.begin() + kTypeOffset + kVlanTag);
}

void set_eth_addrs(std::vector<std::uint8_t>& bytes, const util::MacAddr& src,
                   const util::MacAddr& dst) {
  std::memcpy(bytes.data(), dst.bytes().data(), 6);
  std::memcpy(bytes.data() + 6, src.bytes().data(), 6);
}

void insert_vlan_tag(std::vector<std::uint8_t>& bytes, std::uint16_t vlan) {
  const std::uint8_t tag[kVlanTag] = {
      kEtherTypeVlan >> 8, kEtherTypeVlan & 0xFF,
      static_cast<std::uint8_t>((vlan & 0x0FFF) >> 8),
      static_cast<std::uint8_t>(vlan)};
  bytes.insert(bytes.begin() + kTypeOffset, tag, tag + kVlanTag);
}

}  // namespace gq::pkt

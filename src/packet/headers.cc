#include "packet/headers.h"

#include "packet/checksum.h"
#include "util/bytes.h"

namespace gq::pkt {

using util::ByteReader;

namespace {

util::MacAddr read_mac(ByteReader& r) {
  auto b = r.bytes(6);
  std::array<std::uint8_t, 6> arr;
  std::copy(b.begin(), b.end(), arr.begin());
  return util::MacAddr(arr);
}

}  // namespace

std::optional<EthHeader> parse_eth(std::span<const std::uint8_t> frame,
                                   std::span<const std::uint8_t>* payload) {
  try {
    ByteReader r(frame);
    EthHeader eth;
    eth.dst = read_mac(r);
    eth.src = read_mac(r);
    std::uint16_t type = r.u16();
    if (type == kEtherTypeVlan) {
      eth.vlan = r.u16() & 0x0FFF;
      type = r.u16();
    }
    eth.ethertype = type;
    if (payload) *payload = r.rest();
    return eth;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<ArpMessage> parse_arp(std::span<const std::uint8_t> data) {
  try {
    ByteReader r(data);
    if (r.u16() != 1 || r.u16() != kEtherTypeIpv4) return std::nullopt;
    if (r.u8() != 6 || r.u8() != 4) return std::nullopt;
    ArpMessage arp;
    const std::uint16_t op = r.u16();
    if (op != 1 && op != 2) return std::nullopt;
    arp.op = static_cast<ArpMessage::Op>(op);
    arp.sender_mac = read_mac(r);
    arp.sender_ip = util::Ipv4Addr(r.u32());
    arp.target_mac = read_mac(r);
    arp.target_ip = util::Ipv4Addr(r.u32());
    return arp;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<Ipv4Packet> parse_ipv4(std::span<const std::uint8_t> data,
                                     bool verify_checksum) {
  try {
    ByteReader r(data);
    const std::uint8_t ver_ihl = r.u8();
    if ((ver_ihl >> 4) != 4) return std::nullopt;
    const std::size_t header_len = (ver_ihl & 0x0F) * 4u;
    if (header_len < 20 || data.size() < header_len) return std::nullopt;
    r.skip(1);  // DSCP.
    const std::uint16_t total_len = r.u16();
    if (total_len < header_len || total_len > data.size())
      return std::nullopt;
    Ipv4Packet ip;
    ip.ident = r.u16();
    r.skip(2);  // Flags/fragment.
    ip.ttl = r.u8();
    ip.protocol = r.u8();
    r.skip(2);  // Checksum (verified over the whole header below).
    ip.src = util::Ipv4Addr(r.u32());
    ip.dst = util::Ipv4Addr(r.u32());
    if (verify_checksum && checksum(data.subspan(0, header_len)) != 0)
      return std::nullopt;
    ip.payload.assign(data.begin() + static_cast<std::ptrdiff_t>(header_len),
                      data.begin() + total_len);
    return ip;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<TcpSegment> parse_tcp(util::Ipv4Addr src, util::Ipv4Addr dst,
                                    std::span<const std::uint8_t> data,
                                    bool verify_checksum) {
  try {
    if (verify_checksum && l4_checksum(src, dst, kProtoTcp, data) != 0)
      return std::nullopt;
    ByteReader r(data);
    TcpSegment tcp;
    tcp.src_port = r.u16();
    tcp.dst_port = r.u16();
    tcp.seq = r.u32();
    tcp.ack = r.u32();
    const std::uint8_t offset_words = r.u8() >> 4;
    const std::size_t header_len = offset_words * 4u;
    if (header_len < 20 || header_len > data.size()) return std::nullopt;
    tcp.flags = r.u8();
    tcp.window = r.u16();
    r.skip(4);  // Checksum + urgent pointer.
    auto payload = data.subspan(header_len);
    tcp.payload.assign(payload.begin(), payload.end());
    return tcp;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<UdpDatagram> parse_udp(util::Ipv4Addr src, util::Ipv4Addr dst,
                                     std::span<const std::uint8_t> data,
                                     bool verify_checksum) {
  try {
    ByteReader r(data);
    UdpDatagram udp;
    udp.src_port = r.u16();
    udp.dst_port = r.u16();
    const std::uint16_t len = r.u16();
    if (len < 8 || len > data.size()) return std::nullopt;
    const std::uint16_t wire_csum = r.u16();
    if (verify_checksum && wire_csum != 0 &&
        l4_checksum(src, dst, kProtoUdp, data.subspan(0, len)) != 0)
      return std::nullopt;
    auto payload = data.subspan(8, len - 8);
    udp.payload.assign(payload.begin(), payload.end());
    return udp;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<IcmpMessage> parse_icmp(std::span<const std::uint8_t> data) {
  try {
    if (checksum(data) != 0) return std::nullopt;
    ByteReader r(data);
    IcmpMessage icmp;
    icmp.type = r.u8();
    icmp.code = r.u8();
    r.skip(2);
    icmp.ident = r.u16();
    icmp.sequence = r.u16();
    auto payload = r.rest();
    icmp.payload.assign(payload.begin(), payload.end());
    return icmp;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

}  // namespace gq::pkt

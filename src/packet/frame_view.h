// Zero-copy view over one raw IPv4/TCP|UDP Ethernet frame, and the frame
// builder that makes every frame a device sends. The view locates the
// L2/L3/L4 header offsets over the wire bytes without copying anything,
// exposes read accessors for the fields the gateway's flow tables key
// on, and provides in-place setters for the NAT-rewrite fields (src/dst
// address, ports, TCP seq/ack) that maintain the IPv4 header checksum
// and the L4 pseudo-header checksum incrementally per RFC 1624 instead
// of recomputing over the payload.
//
// The view only accepts *canonical* frames: what the frame builder
// emits (IHL 5, DSCP/ECN 0, unfragmented, TCP data offset 5 with zero
// reserved bits and urgent pointer, UDP length consistent and checksum
// nonzero, no trailing padding). For a canonical frame, rewriting
// through the view is byte-identical to rebuilding it with the new
// fields; anything else fails to parse, and parse_ingress decodes and
// rebuilds it once (making it canonical) before viewing it.
// parse_ingress is the one receive parse of every simulated device: the
// gateway classifies and rewrites every frame through its view, and each
// host stack reads received TCP and UDP through it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "packet/frame.h"
#include "packet/headers.h"
#include "util/addr.h"

namespace gq::pkt {

/// How much of the frame FrameView::parse verifies. The gateway parses
/// with kIpHeader — like a hardware router it checks the 20-byte IP
/// header checksum but does not scan the payload; kFull additionally
/// verifies the L4 checksum, which the gateway requires before it keys
/// any frame outside an established flow, and which a host requires
/// before it accepts any segment.
enum class ViewVerify { kNone, kIpHeader, kFull };

class FrameView {
 public:
  /// Locate header offsets over `bytes` (untagged or single 802.1Q tag).
  /// Returns nullopt for non-IPv4, non-TCP/UDP, or non-canonical frames.
  /// The view aliases `bytes` and is invalidated by any resize of the
  /// underlying buffer.
  static std::optional<FrameView> parse(
      std::span<std::uint8_t> bytes,
      ViewVerify verify = ViewVerify::kIpHeader);

  // --- Read accessors ---------------------------------------------------
  [[nodiscard]] std::optional<std::uint16_t> vlan() const { return vlan_; }
  [[nodiscard]] bool is_tcp() const { return proto_ == kProtoTcp; }
  [[nodiscard]] bool is_udp() const { return proto_ == kProtoUdp; }
  [[nodiscard]] FlowProto proto() const {
    return proto_ == kProtoTcp ? FlowProto::kTcp : FlowProto::kUdp;
  }
  [[nodiscard]] util::Ipv4Addr ip_src() const {
    return util::Ipv4Addr(rd32(l3_ + 12));
  }
  [[nodiscard]] util::Ipv4Addr ip_dst() const {
    return util::Ipv4Addr(rd32(l3_ + 16));
  }
  [[nodiscard]] std::uint16_t src_port() const { return rd16(l4_); }
  [[nodiscard]] std::uint16_t dst_port() const { return rd16(l4_ + 2); }
  [[nodiscard]] std::uint32_t tcp_seq() const { return rd32(l4_ + 4); }
  [[nodiscard]] std::uint32_t tcp_ack() const { return rd32(l4_ + 8); }
  [[nodiscard]] std::uint8_t tcp_flags() const { return base_[l4_ + 13]; }
  [[nodiscard]] bool tcp_syn() const { return tcp_flags() & kTcpSyn; }
  [[nodiscard]] bool tcp_fin() const { return tcp_flags() & kTcpFin; }
  [[nodiscard]] bool tcp_rst() const { return tcp_flags() & kTcpRst; }
  [[nodiscard]] bool tcp_has_ack() const { return tcp_flags() & kTcpAck; }
  /// L4 payload length (TCP payload bytes / UDP datagram payload bytes).
  [[nodiscard]] std::uint32_t payload_len() const { return payload_len_; }
  /// The L4 payload in place: payload_len() bytes behind the TCP or UDP
  /// header.
  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return {base_ + l4_ + (is_tcp() ? 20u : 8u), payload_len_};
  }

  /// The directional flow key of this frame, extracted in place.
  [[nodiscard]] FlowKey flow_key() const {
    return FlowKey{proto(), {ip_src(), src_port()}, {ip_dst(), dst_port()}};
  }

  // --- In-place rewrite (checksums maintained incrementally) -----------
  void set_ip_src(util::Ipv4Addr addr) { set_ip_addr(l3_ + 12, addr); }
  void set_ip_dst(util::Ipv4Addr addr) { set_ip_addr(l3_ + 16, addr); }
  void set_src_port(std::uint16_t port) { set_l4_u16(l4_, port); }
  void set_dst_port(std::uint16_t port) { set_l4_u16(l4_ + 2, port); }
  void set_tcp_seq(std::uint32_t seq) { set_l4_u32(l4_ + 4, seq); }
  void set_tcp_ack(std::uint32_t ack) { set_l4_u32(l4_ + 8, ack); }

 private:
  [[nodiscard]] std::uint16_t rd16(std::size_t at) const {
    return static_cast<std::uint16_t>((base_[at] << 8) | base_[at + 1]);
  }
  [[nodiscard]] std::uint32_t rd32(std::size_t at) const {
    return (static_cast<std::uint32_t>(base_[at]) << 24) |
           (static_cast<std::uint32_t>(base_[at + 1]) << 16) |
           (static_cast<std::uint32_t>(base_[at + 2]) << 8) |
           static_cast<std::uint32_t>(base_[at + 3]);
  }
  void wr16(std::size_t at, std::uint16_t v) {
    base_[at] = static_cast<std::uint8_t>(v >> 8);
    base_[at + 1] = static_cast<std::uint8_t>(v);
  }
  void wr32(std::size_t at, std::uint32_t v) {
    wr16(at, static_cast<std::uint16_t>(v >> 16));
    wr16(at + 2, static_cast<std::uint16_t>(v));
  }

  void set_ip_addr(std::size_t at, util::Ipv4Addr addr);
  void set_l4_u16(std::size_t at, std::uint16_t v);
  void set_l4_u32(std::size_t at, std::uint32_t v);
  /// Apply an incremental delta to the L4 checksum (UDP zero-checksum
  /// convention preserved).
  void l4_csum_update32(std::uint32_t old_word, std::uint32_t new_word);

  std::uint8_t* base_ = nullptr;
  std::uint16_t l3_ = 0;        ///< Offset of the IPv4 header.
  std::uint16_t l4_ = 0;        ///< Offset of the TCP/UDP header.
  std::uint16_t l4_csum_ = 0;   ///< Offset of the L4 checksum field.
  std::uint32_t payload_len_ = 0;
  std::uint8_t proto_ = 0;
  std::optional<std::uint16_t> vlan_;
};

/// What parse_ingress found in a frame.
struct Ingress {
  /// TCP or UDP: the canonical view over the frame's bytes.
  std::optional<FrameView> view;
  std::optional<ArpMessage> arp;
  /// ICMP, as the fallback decoded it.
  std::optional<IcmpMessage> icmp;
  /// IPv4; keyless (ICMP and friends) when `view` is empty.
  bool ipv4 = false;
};

/// The one receive parse every device shares: views the frame in place,
/// verified to `verify`. An untagged 42-byte ARP frame is read in place
/// too (its bytes are exactly what the builder would make of it). Any
/// other frame the view declines (other ARP or non-IPv4, ICMP, a
/// non-canonical TCP/UDP frame with IP or TCP options, trailing padding,
/// a zero UDP checksum or an 802.1Q tag, or one that fails `verify`) is
/// decoded, the only decode on any receive path, and rebuilt canonical
/// and untagged in place, then viewed when it is TCP or UDP. A TCP/UDP
/// frame whose L4 checksum fails decodes as keyless IPv4. Returns
/// nullopt for a frame too short to carry an Ethernet header.
std::optional<Ingress> parse_ingress(std::vector<std::uint8_t>& bytes,
                                     ViewVerify verify);

// --- Frame builder --------------------------------------------------------
// Every frame a device sends is built here, in the canonical shape
// FrameView accepts. One call sizes the buffer once, with spare capacity
// for a later insert_vlan_tag, writes the L2 header (802.1Q tag when
// `eth.vlan` is set) and every L3/L4 header, copies the payload once and
// fills in every checksum in place; a UDP checksum that computes to zero
// is written as 0xFFFF (RFC 768). The builder writes the EtherType and
// IPv4 protocol of what it carries: `eth.ethertype` is read only by
// build_eth, `ip.protocol` only by build_ipv4.

std::vector<std::uint8_t> build_arp(const EthHeader& eth,
                                    const ArpMessage& arp);
std::vector<std::uint8_t> build_tcp(const EthHeader& eth,
                                    const Ipv4Header& ip,
                                    const TcpHeader& tcp,
                                    std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> build_udp(const EthHeader& eth,
                                    const Ipv4Header& ip,
                                    const UdpHeader& udp,
                                    std::span<const std::uint8_t> payload);
std::vector<std::uint8_t> build_icmp(const EthHeader& eth,
                                     const Ipv4Header& ip,
                                     const IcmpHeader& icmp,
                                     std::span<const std::uint8_t> payload);
/// IPv4 carrying `payload` verbatim as protocol `ip.protocol`.
std::vector<std::uint8_t> build_ipv4(const EthHeader& eth,
                                     const Ipv4Header& ip,
                                     std::span<const std::uint8_t> payload);
/// A bare L2 header with `eth.ethertype` and nothing behind it.
std::vector<std::uint8_t> build_eth(const EthHeader& eth);

/// Peek the 802.1Q VID of a raw frame without building a view (nullopt
/// when untagged or truncated).
std::optional<std::uint16_t> vlan_vid_of(
    std::span<const std::uint8_t> bytes);

/// Peek the IPv4 destination / source of a raw untagged frame (nullopt
/// when not IPv4 or truncated). Used by ingress routing, and for frames
/// that are neither TCP nor UDP, which no view covers.
std::optional<util::Ipv4Addr> ipv4_dst_of(
    std::span<const std::uint8_t> bytes);
std::optional<util::Ipv4Addr> ipv4_src_of(
    std::span<const std::uint8_t> bytes);

/// Overwrite the IPv4 destination of a raw untagged frame with a
/// 20-byte IP header in place, maintaining only the IP header checksum:
/// the L4 bytes are left exactly as they are (for a frame that is not
/// TCP or UDP, or whose L4 checksum already fails). No-op when truncated.
void set_ipv4_dst(std::span<std::uint8_t> bytes, util::Ipv4Addr addr);

/// Strip the 802.1Q tag in place (no-op when untagged). The buffer
/// shrinks by four bytes; capacity is retained, so a later re-tag via
/// `insert_vlan_tag` cannot reallocate.
void strip_vlan_tag(std::vector<std::uint8_t>& bytes);

/// Overwrite the Ethernet source and destination addresses in place.
void set_eth_addrs(std::vector<std::uint8_t>& bytes, const util::MacAddr& src,
                   const util::MacAddr& dst);

/// Insert an 802.1Q tag in place (PCP/DEI zero).
void insert_vlan_tag(std::vector<std::uint8_t>& bytes, std::uint16_t vlan);

}  // namespace gq::pkt

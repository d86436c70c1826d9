// Wire-format constants and header representations for the protocols
// GQ's data path speaks: Ethernet (+802.1Q), ARP, IPv4, TCP, UDP, ICMP.
// The `*Header` structs hold the fields a sender chooses; the frame
// builder (packet/frame_view.h) writes them to the wire and derives every
// length and checksum. The owning structs beside them (`Ipv4Packet`,
// `TcpSegment`, ...) add a copy of the payload: they are what the
// per-layer parsers below return, for pkt::decode_frame, which serves
// the receive fallback for frames no view covers, ICMP and tests.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/addr.h"

namespace gq::pkt {

// EtherTypes.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;
inline constexpr std::uint16_t kEtherTypeVlan = 0x8100;

// IPv4 protocol numbers.
inline constexpr std::uint8_t kProtoIcmp = 1;
inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;

// TCP flag bits.
inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpPsh = 0x08;
inline constexpr std::uint8_t kTcpAck = 0x10;

/// Ethernet header; `vlan` present iff the frame carries an 802.1Q tag.
/// GQ identifies inmates by VLAN ID (§5.2), so the tag is first-class.
struct EthHeader {
  util::MacAddr dst{};
  util::MacAddr src{};
  std::optional<std::uint16_t> vlan{};  // 12-bit VID.
  std::uint16_t ethertype = 0;          // Inner ethertype (after any tag).
};

/// ARP request/reply (IPv4 over Ethernet only).
struct ArpMessage {
  enum class Op : std::uint16_t { kRequest = 1, kReply = 2 };
  Op op = Op::kRequest;
  util::MacAddr sender_mac{};
  util::Ipv4Addr sender_ip{};
  util::MacAddr target_mac{};
  util::Ipv4Addr target_ip{};
};

/// IPv4 header fields (20 bytes, no options); length and checksum are
/// derived from what the header carries.
struct Ipv4Header {
  util::Ipv4Addr src{};
  util::Ipv4Addr dst{};
  std::uint8_t protocol = 0;
  std::uint8_t ttl = 64;
  std::uint16_t ident = 0;
};

/// TCP header fields (20 bytes, no options).
struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;

  [[nodiscard]] bool syn() const { return flags & kTcpSyn; }
  [[nodiscard]] bool fin() const { return flags & kTcpFin; }
  [[nodiscard]] bool rst() const { return flags & kTcpRst; }
  [[nodiscard]] bool has_ack() const { return flags & kTcpAck; }
};

/// UDP header fields (length and checksum are derived).
struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

/// ICMP header fields (echo and unreachable are what the farm uses).
struct IcmpHeader {
  std::uint8_t type = 0;
  std::uint8_t code = 0;
  std::uint16_t ident = 0;
  std::uint16_t sequence = 0;
};

// The decoded forms: header fields plus an owned copy of the payload.
struct Ipv4Packet : Ipv4Header { std::vector<std::uint8_t> payload; };
struct TcpSegment : TcpHeader { std::vector<std::uint8_t> payload; };
struct UdpDatagram : UdpHeader { std::vector<std::uint8_t> payload; };
struct IcmpMessage : IcmpHeader { std::vector<std::uint8_t> payload; };

// --- Parsing -------------------------------------------------------------
// Parsers return nullopt on truncated or malformed input; checksums are
// verified where `verify_checksums` is requested (the simulator always
// produces valid checksums, but the gateway verifies defensively).

std::optional<EthHeader> parse_eth(std::span<const std::uint8_t> frame,
                                   std::span<const std::uint8_t>* payload);

std::optional<ArpMessage> parse_arp(std::span<const std::uint8_t> data);

std::optional<Ipv4Packet> parse_ipv4(std::span<const std::uint8_t> data,
                                     bool verify_checksum = true);

std::optional<TcpSegment> parse_tcp(util::Ipv4Addr src, util::Ipv4Addr dst,
                                    std::span<const std::uint8_t> data,
                                    bool verify_checksum = true);

std::optional<UdpDatagram> parse_udp(util::Ipv4Addr src, util::Ipv4Addr dst,
                                     std::span<const std::uint8_t> data,
                                     bool verify_checksum = true);

std::optional<IcmpMessage> parse_icmp(std::span<const std::uint8_t> data);

}  // namespace gq::pkt

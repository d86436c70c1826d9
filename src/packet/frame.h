// Whole-frame decode and the flow-key abstraction the gateway's flow
// table is keyed on. A DecodedFrame is a fully owned representation of
// one Ethernet frame: what the receive fallback of pkt::parse_ingress
// makes of a frame no view covers (ICMP, non-canonical TCP/UDP), and the
// reference the tests hold the view and the frame builder to.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "packet/headers.h"
#include "util/addr.h"

namespace gq::pkt {

/// A fully decoded Ethernet frame. Exactly one of `arp`, or (`ip` plus at
/// most one of `tcp`/`udp`/`icmp`), is populated depending on ethertype
/// and protocol. Unrecognized payloads are preserved verbatim in
/// `ip->payload` so the gateway can forward protocols it does not parse.
struct DecodedFrame {
  EthHeader eth;
  std::optional<ArpMessage> arp;
  std::optional<Ipv4Packet> ip;
  std::optional<TcpSegment> tcp;
  std::optional<UdpDatagram> udp;
  std::optional<IcmpMessage> icmp;

  [[nodiscard]] bool is_tcp() const { return tcp.has_value(); }
  [[nodiscard]] bool is_udp() const { return udp.has_value(); }

  /// L4 source/destination ports (0 for non-TCP/UDP).
  [[nodiscard]] std::uint16_t src_port() const;
  [[nodiscard]] std::uint16_t dst_port() const;

  /// Rebuild the wire bytes with the frame builder (packet/frame_view.h).
  /// L4 containers are authoritative: when `tcp`/`udp`/`icmp` is set,
  /// `ip->payload` and `ip->protocol` are not read.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// One-line human summary for logs ("10.0.0.23:1234 > 1.2.3.4:80 TCP S").
  [[nodiscard]] std::string summary() const;
};

/// Decode raw frame bytes. Returns nullopt if the Ethernet header is
/// malformed; higher layers that fail to parse simply stay unset (the
/// raw bytes remain available through `ip->payload` when IPv4 parsed).
std::optional<DecodedFrame> decode_frame(std::span<const std::uint8_t> bytes);

/// Transport protocol of a flow, for flow-table keying.
enum class FlowProto : std::uint8_t { kTcp = 6, kUdp = 17 };

/// Directional 5-tuple identifying a flow as seen on the inmate network.
/// The gateway keys flow state on the *initiator-oriented* tuple.
struct FlowKey {
  FlowProto proto = FlowProto::kTcp;
  util::Endpoint src;
  util::Endpoint dst;

  friend constexpr auto operator<=>(const FlowKey&, const FlowKey&) = default;

  /// The same flow seen from the opposite direction.
  [[nodiscard]] FlowKey reversed() const { return {proto, dst, src}; }

  [[nodiscard]] std::string str() const;
};

/// Hash functor for FlowKey, for the gateway's unordered flow tables.
/// Packs the 104-bit tuple into two words and finalizes with splitmix64
/// so per-flow sequential ports / addresses spread across buckets.
struct FlowKeyHash {
  static constexpr std::uint64_t mix(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }
  std::size_t operator()(const FlowKey& key) const noexcept {
    const std::uint64_t addrs =
        (std::uint64_t{key.src.addr.value()} << 32) | key.dst.addr.value();
    const std::uint64_t rest = (std::uint64_t{key.src.port} << 24) |
                               (std::uint64_t{key.dst.port} << 8) |
                               static_cast<std::uint64_t>(key.proto);
    return static_cast<std::size_t>(mix(addrs ^ mix(rest)));
  }
};

/// Extract a FlowKey from a decoded TCP/UDP frame (nullopt otherwise).
std::optional<FlowKey> flow_key_of(const DecodedFrame& frame);

}  // namespace gq::pkt

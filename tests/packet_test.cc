// Unit tests for src/packet: the frame builder against the per-layer
// parsers, decode_frame and FrameView (a property test over random
// frames), checksum correctness, malformed-input rejection, the in-place
// ARP read of parse_ingress, flow keys, pcap output.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "packet/checksum.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "packet/headers.h"
#include "packet/pcap.h"
#include "util/rng.h"

namespace gq::pkt {
namespace {

using util::Ipv4Addr;
using util::MacAddr;

// Offsets of the IPv4 header and the L4 header in an untagged frame.
constexpr std::size_t kL3 = 14;
constexpr std::size_t kL4 = kL3 + 20;

TEST(Checksum, KnownVector) {
  // Classic RFC 1071 example data.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(checksum(data), 0xFFFF - ((0x0001 + 0xf203 + 0xf4f5 + 0xf6f7) %
                                      0xFFFF));
}

TEST(Checksum, OddLengthPadded) {
  const std::uint8_t data[] = {0xAB};
  EXPECT_EQ(checksum(data), static_cast<std::uint16_t>(~0xAB00u));
}

TEST(Checksum, WordAtATimeMatchesScalarReference) {
  // The shipping checksum accumulates 64 bits at a time; the byte-pair
  // scalar version is kept as the oracle. Exercise every length residue
  // (mod 8) and varied contents, including carry-heavy 0xFF runs.
  util::Rng rng(0xC5C5);
  for (std::size_t len = 0; len <= 64; ++len) {
    std::vector<std::uint8_t> data(len);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(checksum(data), checksum_reference(data)) << "len=" << len;
  }
  for (const std::size_t len : {65u, 511u, 512u, 513u, 1459u, 1460u}) {
    std::vector<std::uint8_t> random(len), ones(len, 0xFF), zero(len, 0x00);
    for (auto& b : random) b = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(checksum(random), checksum_reference(random)) << len;
    EXPECT_EQ(checksum(ones), checksum_reference(ones)) << len;
    EXPECT_EQ(checksum(zero), checksum_reference(zero)) << len;
  }
}

TEST(Checksum, IncrementalUpdateMatchesRecompute) {
  // RFC 1624 eqn. 3: patch one 16-bit word and update the checksum
  // incrementally; must equal a full recompute over the new buffer.
  util::Rng rng(0x1624);
  std::vector<std::uint8_t> data(40);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint16_t before = checksum(data);
    const std::size_t at = (rng.next() % (data.size() / 2)) * 2;
    const std::uint16_t old_word =
        static_cast<std::uint16_t>((data[at] << 8) | data[at + 1]);
    const std::uint16_t new_word = static_cast<std::uint16_t>(rng.next());
    data[at] = static_cast<std::uint8_t>(new_word >> 8);
    data[at + 1] = static_cast<std::uint8_t>(new_word);
    const std::uint16_t updated =
        checksum_update(before, old_word, new_word);
    // Compare in sum-space: 0x0000 and 0xFFFF encode the same
    // one's-complement sum, and real headers never sum to it anyway.
    const std::uint16_t full = checksum(data);
    const bool equal = updated == full ||
                       (updated == 0xFFFF && full == 0) ||
                       (updated == 0 && full == 0xFFFF);
    EXPECT_TRUE(equal) << "trial " << trial << ": incremental 0x"
                       << std::hex << updated << " vs full 0x" << full;
  }
}

TEST(Checksum, ZeroOverValidPacket) {
  // A buffer whose stored checksum is correct sums to zero.
  auto bytes = build_ipv4({}, {.src = Ipv4Addr(10, 0, 0, 1),
                               .dst = Ipv4Addr(10, 0, 0, 2),
                               .protocol = kProtoTcp},
                          {});
  EXPECT_EQ(checksum(std::span(bytes).subspan(kL3, 20)), 0);
}

TEST(Ipv4, RoundTrip) {
  const Ipv4Header ip{.src = Ipv4Addr(192, 168, 1, 1),
                      .dst = Ipv4Addr(8, 8, 8, 8),
                      .protocol = kProtoUdp,
                      .ttl = 17,
                      .ident = 0x4242};
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  auto bytes = build_ipv4({}, ip, payload);
  auto parsed = parse_ipv4(std::span(bytes).subspan(kL3));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src, ip.src);
  EXPECT_EQ(parsed->dst, ip.dst);
  EXPECT_EQ(parsed->protocol, kProtoUdp);
  EXPECT_EQ(parsed->ttl, 17);
  EXPECT_EQ(parsed->ident, 0x4242);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(Ipv4, CorruptChecksumRejected) {
  auto bytes = build_ipv4(
      {}, {.src = Ipv4Addr(1, 1, 1, 1), .dst = Ipv4Addr(2, 2, 2, 2)}, {});
  bytes[kL3 + 10] ^= 0xFF;
  const auto packet = std::span(bytes).subspan(kL3);
  EXPECT_FALSE(parse_ipv4(packet));
  EXPECT_TRUE(parse_ipv4(packet, /*verify_checksum=*/false));
}

TEST(Ipv4, TruncatedRejected) {
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  auto bytes = build_ipv4(
      {}, {.src = Ipv4Addr(1, 1, 1, 1), .dst = Ipv4Addr(2, 2, 2, 2)}, payload);
  EXPECT_FALSE(parse_ipv4(std::span(bytes).subspan(kL3, 10)));
}

TEST(Tcp, RoundTrip) {
  const Ipv4Addr src(10, 0, 0, 23), dst(192, 150, 187, 12);
  const TcpHeader tcp{.src_port = 1234,
                      .dst_port = 80,
                      .seq = 0xAABBCCDD,
                      .ack = 0x11223344,
                      .flags = kTcpSyn | kTcpAck,
                      .window = 4096};
  const std::vector<std::uint8_t> payload = {'G', 'E', 'T'};
  auto bytes = build_tcp({}, {.src = src, .dst = dst}, tcp, payload);
  auto parsed = parse_tcp(src, dst, std::span(bytes).subspan(kL4));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src_port, 1234);
  EXPECT_EQ(parsed->dst_port, 80);
  EXPECT_EQ(parsed->seq, 0xAABBCCDDu);
  EXPECT_EQ(parsed->ack, 0x11223344u);
  EXPECT_TRUE(parsed->syn());
  EXPECT_TRUE(parsed->has_ack());
  EXPECT_FALSE(parsed->fin());
  EXPECT_EQ(parsed->window, 4096);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(Tcp, ChecksumBindsAddresses) {
  // A segment is only valid for the address pair it was built with —
  // this is what forces the gateway to recompute checksums when NATing.
  const Ipv4Addr src(10, 0, 0, 23), dst(192, 150, 187, 12);
  auto bytes = build_tcp({}, {.src = src, .dst = dst},
                         {.src_port = 1, .dst_port = 2}, {});
  const auto segment = std::span(bytes).subspan(kL4);
  EXPECT_TRUE(parse_tcp(src, dst, segment));
  EXPECT_FALSE(parse_tcp(src, Ipv4Addr(9, 9, 9, 9), segment));
}

TEST(Udp, RoundTrip) {
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD};
  auto bytes = build_udp({}, {.src = src, .dst = dst}, {5353, 53}, payload);
  auto parsed = parse_udp(src, dst, std::span(bytes).subspan(kL4));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->src_port, 5353);
  EXPECT_EQ(parsed->dst_port, 53);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(Udp, BadChecksumRejected) {
  const Ipv4Addr src(10, 0, 0, 1), dst(10, 0, 0, 2);
  const std::vector<std::uint8_t> payload = {1};
  auto bytes = build_udp({}, {.src = src, .dst = dst}, {}, payload);
  bytes.back() ^= 0x55;
  EXPECT_FALSE(parse_udp(src, dst, std::span(bytes).subspan(kL4)));
}

TEST(Arp, RoundTrip) {
  const ArpMessage arp{ArpMessage::Op::kReply, MacAddr::local(1),
                       Ipv4Addr(10, 0, 0, 1), MacAddr::local(2),
                       Ipv4Addr(10, 0, 0, 2)};
  auto bytes = build_arp({}, arp);
  EXPECT_EQ(bytes.size(), kL3 + 28);
  auto parsed = parse_arp(std::span(bytes).subspan(kL3));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->op, ArpMessage::Op::kReply);
  EXPECT_EQ(parsed->sender_ip, arp.sender_ip);
  EXPECT_EQ(parsed->target_mac, arp.target_mac);
}

TEST(Icmp, RoundTrip) {
  const std::vector<std::uint8_t> payload = {0xCA, 0xFE};
  auto bytes = build_icmp({}, {}, {.type = 8, .ident = 77, .sequence = 3},
                          payload);  // Echo request.
  auto parsed = parse_icmp(std::span(bytes).subspan(kL4));
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, 8);
  EXPECT_EQ(parsed->ident, 77);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(Eth, UntaggedRoundTrip) {
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  auto bytes = build_ipv4(
      {.dst = MacAddr::broadcast(), .src = MacAddr::local(5)}, {}, payload);
  EXPECT_EQ(bytes.size(), kL4 + 3);
  std::span<const std::uint8_t> rest;
  auto parsed = parse_eth(bytes, &rest);
  ASSERT_TRUE(parsed);
  EXPECT_FALSE(parsed->vlan);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIpv4);
  EXPECT_EQ(rest.size(), 23u);
}

TEST(Eth, VlanTagRoundTrip) {
  auto bytes = build_eth({.dst = MacAddr::local(1),
                          .src = MacAddr::local(2),
                          .vlan = 42,
                          .ethertype = kEtherTypeIpv4});
  EXPECT_EQ(bytes.size(), 18u);
  auto parsed = parse_eth(bytes, nullptr);
  ASSERT_TRUE(parsed);
  ASSERT_TRUE(parsed->vlan);
  EXPECT_EQ(*parsed->vlan, 42);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIpv4);
}

MacAddr random_mac(util::Rng& rng) {
  std::array<std::uint8_t, 6> bytes{};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return MacAddr(bytes);
}

std::uint16_t rd16(std::span<const std::uint8_t> bytes, std::size_t at) {
  return static_cast<std::uint16_t>((bytes[at] << 8) | bytes[at + 1]);
}

// Random TCP and UDP frames, tagged or not, with payloads of 0-1460
// bytes: the builder's output views canonical once untagged, decodes to
// every field it was given, and writes a UDP checksum that computes to
// zero as 0xFFFF.
TEST(FrameBuilder, RandomFramesViewAndDecodeToEveryField) {
  util::Rng rng(0xB11D);
  int zero_checksums = 0;
  for (int i = 0; i < 10'000; ++i) {
    EthHeader eth{.dst = random_mac(rng), .src = random_mac(rng)};
    if (rng.chance(0.5)) eth.vlan = static_cast<std::uint16_t>(rng.below(4096));
    const Ipv4Header ip{.src = Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                        .dst = Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                        .ttl = static_cast<std::uint8_t>(rng.next()),
                        .ident = static_cast<std::uint16_t>(rng.next())};
    const TcpHeader tcp{.src_port = static_cast<std::uint16_t>(rng.next()),
                        .dst_port = static_cast<std::uint16_t>(rng.next()),
                        .seq = static_cast<std::uint32_t>(rng.next()),
                        .ack = static_cast<std::uint32_t>(rng.next()),
                        .flags = static_cast<std::uint8_t>(rng.next()),
                        .window = static_cast<std::uint16_t>(rng.next())};
    const UdpHeader udp{tcp.src_port, tcp.dst_port};
    std::vector<std::uint8_t> payload(rng.below(1461));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
    const bool is_tcp = rng.chance(0.5);
    const std::size_t l2 = eth.vlan ? kL3 + 4 : kL3;

    auto bytes = is_tcp ? build_tcp(eth, ip, tcp, payload)
                        : build_udp(eth, ip, udp, payload);
    if (!is_tcp && payload.size() >= 2 && i % 8 == 0) {
      // Steer the first payload word so the checksum computes to zero:
      // adding the written checksum to a word brings the one's-complement
      // sum to 0xFFFF.
      const std::size_t csum_at = l2 + 20 + 6;
      const std::uint32_t sum = rd16(payload, 0) + rd16(bytes, csum_at);
      const auto word =
          static_cast<std::uint16_t>((sum & 0xFFFF) + (sum >> 16));
      payload[0] = static_cast<std::uint8_t>(word >> 8);
      payload[1] = static_cast<std::uint8_t>(word);
      bytes = build_udp(eth, ip, udp, payload);
      ASSERT_EQ(rd16(bytes, csum_at), 0xFFFF) << "frame " << i;
      ++zero_checksums;
    }
    ASSERT_EQ(bytes.size(), l2 + 20 + (is_tcp ? 20 : 8) + payload.size());
    EXPECT_GE(bytes.capacity(), bytes.size() + 4);  // Room for a tag.

    const auto frame = decode_frame(bytes);
    ASSERT_TRUE(frame && frame->ip) << "frame " << i;
    EXPECT_EQ(frame->eth.dst, eth.dst);
    EXPECT_EQ(frame->eth.src, eth.src);
    EXPECT_EQ(frame->eth.vlan, eth.vlan);
    EXPECT_EQ(frame->eth.ethertype, kEtherTypeIpv4);
    EXPECT_EQ(frame->ip->src, ip.src);
    EXPECT_EQ(frame->ip->dst, ip.dst);
    EXPECT_EQ(frame->ip->ttl, ip.ttl);
    EXPECT_EQ(frame->ip->ident, ip.ident);
    if (is_tcp) {
      ASSERT_TRUE(frame->tcp) << "frame " << i;
      EXPECT_EQ(frame->ip->protocol, kProtoTcp);
      EXPECT_EQ(frame->tcp->src_port, tcp.src_port);
      EXPECT_EQ(frame->tcp->dst_port, tcp.dst_port);
      EXPECT_EQ(frame->tcp->seq, tcp.seq);
      EXPECT_EQ(frame->tcp->ack, tcp.ack);
      EXPECT_EQ(frame->tcp->flags, tcp.flags);
      EXPECT_EQ(frame->tcp->window, tcp.window);
      EXPECT_EQ(frame->tcp->payload, payload);
    } else {
      ASSERT_TRUE(frame->udp) << "frame " << i;
      EXPECT_EQ(frame->ip->protocol, kProtoUdp);
      EXPECT_EQ(frame->udp->src_port, udp.src_port);
      EXPECT_EQ(frame->udp->dst_port, udp.dst_port);
      EXPECT_EQ(frame->udp->payload, payload);
    }
    EXPECT_EQ(frame->encode(), bytes);

    strip_vlan_tag(bytes);
    const auto view = FrameView::parse(bytes, ViewVerify::kFull);
    ASSERT_TRUE(view) << "frame " << i;
    EXPECT_EQ(view->is_tcp(), is_tcp);
    EXPECT_EQ(view->flow_key(),
              (FlowKey{is_tcp ? FlowProto::kTcp : FlowProto::kUdp,
                       {ip.src, tcp.src_port},
                       {ip.dst, tcp.dst_port}}));
    EXPECT_TRUE(std::ranges::equal(view->payload(), payload));
  }
  EXPECT_GT(zero_checksums, 500);
}

TEST(ParseIngress, CanonicalArpIsReadInPlace) {
  const ArpMessage who_has{ArpMessage::Op::kRequest, MacAddr::local(7),
                           Ipv4Addr(10, 0, 0, 7), MacAddr{},
                           Ipv4Addr(10, 0, 0, 1)};
  auto bytes = build_arp(
      {.dst = MacAddr::broadcast(), .src = MacAddr::local(7)}, who_has);
  const auto wire = bytes;
  const std::uint8_t* const data = bytes.data();
  const auto in = parse_ingress(bytes, ViewVerify::kFull);
  ASSERT_TRUE(in && in->arp);
  EXPECT_EQ(in->arp->sender_ip, who_has.sender_ip);
  EXPECT_EQ(in->arp->target_ip, who_has.target_ip);
  EXPECT_EQ(bytes.data(), data);  // The same buffer, never reassigned.
  EXPECT_EQ(bytes, wire);

  // Padded to the Ethernet minimum it is not canonical: the fallback
  // rebuilds it to the same 42 bytes.
  auto padded = wire;
  padded.resize(60, 0);
  const auto padded_in = parse_ingress(padded, ViewVerify::kFull);
  ASSERT_TRUE(padded_in && padded_in->arp);
  EXPECT_EQ(padded, wire);
}

TEST(Frame, DecodeEncodeTcp) {
  DecodedFrame f;
  f.eth.dst = MacAddr::local(1);
  f.eth.src = MacAddr::local(2);
  f.eth.vlan = 16;
  f.eth.ethertype = kEtherTypeIpv4;
  f.ip = Ipv4Packet{};
  f.ip->src = Ipv4Addr(10, 0, 0, 23);
  f.ip->dst = Ipv4Addr(192, 150, 187, 12);
  f.tcp = TcpSegment{};
  f.tcp->src_port = 1234;
  f.tcp->dst_port = 80;
  f.tcp->flags = kTcpSyn;

  auto bytes = f.encode();
  auto decoded = decode_frame(bytes);
  ASSERT_TRUE(decoded);
  ASSERT_TRUE(decoded->tcp);
  EXPECT_EQ(decoded->eth.vlan, 16);
  EXPECT_EQ(decoded->tcp->dst_port, 80);
  EXPECT_TRUE(decoded->tcp->syn());

  // Mutate-and-reencode (what the gateway's NAT does) keeps it parseable.
  decoded->ip->src = Ipv4Addr(7, 7, 7, 7);
  decoded->tcp->seq += 24;
  auto re = decode_frame(decoded->encode());
  ASSERT_TRUE(re);
  EXPECT_EQ(re->ip->src.str(), "7.7.7.7");
}

TEST(Frame, FlowKeyAndReverse) {
  DecodedFrame f;
  f.eth.ethertype = kEtherTypeIpv4;
  f.ip = Ipv4Packet{};
  f.ip->src = Ipv4Addr(10, 0, 0, 23);
  f.ip->dst = Ipv4Addr(1, 2, 3, 4);
  f.udp = UdpDatagram{};
  f.udp->src_port = 9999;
  f.udp->dst_port = 53;
  auto key = flow_key_of(f);
  ASSERT_TRUE(key);
  EXPECT_EQ(key->proto, FlowProto::kUdp);
  EXPECT_EQ(key->src.port, 9999);
  auto rev = key->reversed();
  EXPECT_EQ(rev.src.port, 53);
  EXPECT_EQ(rev.dst.addr, f.ip->src);
  EXPECT_EQ(rev.reversed(), *key);
}

TEST(Frame, NonIpHasNoFlowKey) {
  DecodedFrame f;
  f.eth.ethertype = kEtherTypeArp;
  f.arp = ArpMessage{};
  EXPECT_FALSE(flow_key_of(f));
}

TEST(Pcap, HeaderAndRecords) {
  PcapWriter pcap;
  std::vector<std::uint8_t> frame(60, 0xAA);
  pcap.record(util::TimePoint{1'500'000}, frame);
  pcap.record(util::TimePoint{2'000'001}, frame);
  EXPECT_EQ(pcap.packet_count(), 2u);
  auto bytes = pcap.contents();
  ASSERT_EQ(bytes.size(), 24u + 2 * (16 + 60));
  // Magic, little-endian.
  EXPECT_EQ(bytes[0], 0xD4);
  EXPECT_EQ(bytes[1], 0xC3);
  EXPECT_EQ(bytes[2], 0xB2);
  EXPECT_EQ(bytes[3], 0xA1);
  // First record timestamp: 1 s, 500000 µs.
  EXPECT_EQ(bytes[24], 1);
  const std::uint32_t usec = bytes[28] | (bytes[29] << 8) |
                             (bytes[30] << 16) |
                             (static_cast<std::uint32_t>(bytes[31]) << 24);
  EXPECT_EQ(usec, 500'000u);
}

}  // namespace
}  // namespace gq::pkt

// Unit tests for the zero-copy FrameView: the in-place NAT rewrite with
// incrementally maintained checksums must be byte-identical to the
// decode / mutate / re-encode reference for every canonical frame shape
// the gateway forwards (TCP and UDP, VLAN-tagged and untagged, odd and
// even payload lengths), and non-canonical frames must be rejected so
// the gateway re-encodes them before viewing. Also covers the FlowKeyHash functor
// the hashed flow tables are built on.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <unordered_set>
#include <vector>

#include "packet/checksum.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "packet/headers.h"
#include "util/rng.h"

namespace gq::pkt {
namespace {

using util::Ipv4Addr;

struct FrameSpec {
  bool tcp = true;
  bool tagged = false;
  std::size_t payload_len = 0;
  std::uint8_t flags = kTcpAck | kTcpPsh;
};

std::vector<std::uint8_t> make_frame(const FrameSpec& spec, util::Rng& rng) {
  DecodedFrame frame;
  frame.eth.src = util::MacAddr::local(7);
  frame.eth.dst = util::MacAddr::local(8);
  frame.eth.ethertype = kEtherTypeIpv4;
  if (spec.tagged) frame.eth.vlan = 21;
  frame.ip = Ipv4Packet{};
  frame.ip->src = Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  frame.ip->dst = Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  frame.ip->ttl = 63;
  std::vector<std::uint8_t> payload(spec.payload_len);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  if (spec.tcp) {
    frame.tcp = TcpSegment{};
    frame.tcp->src_port = static_cast<std::uint16_t>(rng.next());
    frame.tcp->dst_port = static_cast<std::uint16_t>(rng.next());
    frame.tcp->seq = static_cast<std::uint32_t>(rng.next());
    frame.tcp->ack = static_cast<std::uint32_t>(rng.next());
    frame.tcp->flags = spec.flags;
    frame.tcp->payload = std::move(payload);
  } else {
    frame.udp = UdpDatagram{static_cast<std::uint16_t>(rng.next()),
                            static_cast<std::uint16_t>(rng.next()),
                            std::move(payload)};
  }
  return frame.encode();
}

TEST(FrameView, ParseLocatesFields) {
  util::Rng rng(1);
  auto bytes = make_frame({true, true, 32}, rng);
  auto view = FrameView::parse(bytes, ViewVerify::kFull);
  ASSERT_TRUE(view);
  auto decoded = decode_frame(bytes);
  ASSERT_TRUE(decoded && decoded->tcp);
  EXPECT_EQ(view->vlan(), decoded->eth.vlan);
  EXPECT_EQ(view->ip_src(), decoded->ip->src);
  EXPECT_EQ(view->ip_dst(), decoded->ip->dst);
  EXPECT_EQ(view->src_port(), decoded->tcp->src_port);
  EXPECT_EQ(view->dst_port(), decoded->tcp->dst_port);
  EXPECT_EQ(view->tcp_seq(), decoded->tcp->seq);
  EXPECT_EQ(view->tcp_ack(), decoded->tcp->ack);
  EXPECT_EQ(view->payload_len(), decoded->tcp->payload.size());
  EXPECT_EQ(view->flow_key(), *flow_key_of(*decoded));
  const auto payload = view->payload();
  EXPECT_EQ(std::vector<std::uint8_t>(payload.begin(), payload.end()),
            decoded->tcp->payload);

  auto udp_bytes = make_frame({false, false, 17}, rng);
  auto udp_view = FrameView::parse(udp_bytes, ViewVerify::kFull);
  ASSERT_TRUE(udp_view);
  const auto udp_payload = udp_view->payload();
  EXPECT_EQ(std::vector<std::uint8_t>(udp_payload.begin(), udp_payload.end()),
            decode_frame(udp_bytes)->udp->payload);
}

// The core property: rewriting through the view must produce the exact
// bytes a decode / mutate / re-encode produces, for every
// combination of protocol, tagging, and payload parity, across many
// random header values and payload contents.
TEST(FrameView, RewriteByteIdenticalToReencode) {
  util::Rng rng(0xFA57);
  for (const bool tcp : {true, false}) {
    for (const bool tagged : {false, true}) {
      for (const std::size_t payload_len :
           {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
            std::size_t{117}, std::size_t{512}, std::size_t{1459},
            std::size_t{1460}}) {
        for (int trial = 0; trial < 8; ++trial) {
          FrameSpec spec;
          spec.tcp = tcp;
          spec.tagged = tagged;
          spec.payload_len = payload_len;
          if (tcp && (trial % 2)) spec.flags = kTcpAck | kTcpFin;
          auto bytes = make_frame(spec, rng);

          const Ipv4Addr new_src(static_cast<std::uint32_t>(rng.next()));
          const Ipv4Addr new_dst(static_cast<std::uint32_t>(rng.next()));
          const std::uint16_t new_sport =
              static_cast<std::uint16_t>(rng.next());
          const std::uint16_t new_dport =
              static_cast<std::uint16_t>(rng.next());
          const std::uint32_t d_seq = static_cast<std::uint32_t>(rng.next());
          const std::uint32_t d_ack = static_cast<std::uint32_t>(rng.next());

          // Reference: full decode, mutate, re-encode.
          auto decoded = decode_frame(bytes);
          ASSERT_TRUE(decoded);
          decoded->ip->src = new_src;
          decoded->ip->dst = new_dst;
          if (tcp) {
            decoded->tcp->src_port = new_sport;
            decoded->tcp->dst_port = new_dport;
            decoded->tcp->seq += d_seq;
            decoded->tcp->ack -= d_ack;
          } else {
            decoded->udp->src_port = new_sport;
            decoded->udp->dst_port = new_dport;
          }
          const auto slow = decoded->encode();

          // View: in-place rewrite with incremental checksums.
          auto view = FrameView::parse(bytes, ViewVerify::kFull);
          ASSERT_TRUE(view) << "canonical frame must parse";
          view->set_ip_src(new_src);
          view->set_ip_dst(new_dst);
          view->set_src_port(new_sport);
          view->set_dst_port(new_dport);
          if (tcp) {
            view->set_tcp_seq(view->tcp_seq() + d_seq);
            view->set_tcp_ack(view->tcp_ack() - d_ack);
          }

          ASSERT_EQ(bytes, slow)
              << "tcp=" << tcp << " tagged=" << tagged
              << " payload=" << payload_len << " trial=" << trial;
          // And the rewritten frame still verifies end to end.
          EXPECT_TRUE(FrameView::parse(bytes, ViewVerify::kFull));
        }
      }
    }
  }
}

TEST(FrameView, NoOpRewriteLeavesFrameUntouched) {
  util::Rng rng(3);
  auto bytes = make_frame({true, false, 100}, rng);
  const auto original = bytes;
  auto view = FrameView::parse(bytes, ViewVerify::kFull);
  ASSERT_TRUE(view);
  view->set_ip_src(view->ip_src());
  view->set_src_port(view->src_port());
  view->set_tcp_seq(view->tcp_seq());
  view->set_tcp_ack(view->tcp_ack());
  EXPECT_EQ(bytes, original);
}

TEST(FrameView, RejectsNonCanonicalFrames) {
  util::Rng rng(4);
  // Truncated frame.
  auto bytes = make_frame({true, false, 20}, rng);
  auto short_frame = std::vector<std::uint8_t>(bytes.begin(),
                                               bytes.begin() + 20);
  EXPECT_FALSE(FrameView::parse(short_frame));
  // Trailing padding (total_len no longer covers the buffer).
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(FrameView::parse(padded));
  // Fragmented packet.
  auto fragged = bytes;
  fragged[14 + 6] = 0x20;  // More-fragments flag.
  EXPECT_FALSE(FrameView::parse(fragged));
  // Corrupt IP header checksum (kIpHeader verification catches it).
  auto corrupt = bytes;
  corrupt[14 + 10] ^= 0xFF;
  EXPECT_FALSE(FrameView::parse(corrupt));
  // Corrupt payload byte passes kIpHeader but fails kFull.
  auto payload_corrupt = bytes;
  payload_corrupt.back() ^= 0xFF;
  EXPECT_TRUE(FrameView::parse(payload_corrupt, ViewVerify::kIpHeader));
  EXPECT_FALSE(FrameView::parse(payload_corrupt, ViewVerify::kFull));
  // Zero UDP checksum ("no checksum" convention): not canonical.
  auto udp = make_frame({false, false, 16}, rng);
  udp[14 + 20 + 6] = 0;
  udp[14 + 20 + 7] = 0;
  EXPECT_FALSE(FrameView::parse(udp, ViewVerify::kNone));
  // ARP is not IPv4.
  DecodedFrame arp;
  arp.eth.ethertype = kEtherTypeArp;
  arp.arp = ArpMessage{};
  auto arp_bytes = arp.encode();
  EXPECT_FALSE(FrameView::parse(arp_bytes));
}

TEST(FrameView, VlanHelpers) {
  util::Rng rng(5);
  auto tagged = make_frame({true, true, 64}, rng);
  auto untagged = make_frame({true, false, 64}, rng);
  EXPECT_EQ(vlan_vid_of(tagged), std::optional<std::uint16_t>{21});
  EXPECT_EQ(vlan_vid_of(untagged), std::nullopt);

  // Strip in place, retagging restores the original bytes, and the
  // strip retains capacity so the re-tag cannot reallocate.
  auto work = tagged;
  strip_vlan_tag(work);
  EXPECT_EQ(work.size(), tagged.size() - 4);
  EXPECT_EQ(vlan_vid_of(work), std::nullopt);
  const auto* data_before = work.data();
  insert_vlan_tag(work, 21);
  EXPECT_EQ(work, tagged);
  EXPECT_EQ(work.data(), data_before);

  // ipv4_dst_of / ipv4_src_of peek the addresses of untagged frames only.
  auto decoded = decode_frame(untagged);
  EXPECT_EQ(ipv4_dst_of(untagged), decoded->ip->dst);
  EXPECT_EQ(ipv4_src_of(untagged), decoded->ip->src);
  EXPECT_EQ(ipv4_dst_of(tagged), std::nullopt);
  EXPECT_EQ(ipv4_src_of(tagged), std::nullopt);
}

// set_ipv4_dst rewrites only the IP header: for ICMP it matches a decode
// / mutate / re-encode, and a TCP segment's bytes (checksum included)
// stay exactly as they were.
TEST(FrameView, SetIpv4DstLeavesL4BytesAlone) {
  DecodedFrame icmp;
  icmp.eth.ethertype = kEtherTypeIpv4;
  icmp.ip = Ipv4Packet{};
  icmp.ip->src = Ipv4Addr(203, 0, 113, 9);
  icmp.ip->dst = Ipv4Addr(198, 18, 0, 10);
  icmp.icmp = IcmpMessage{8, 0, 7, 1, {1, 2, 3}};
  auto bytes = icmp.encode();
  set_ipv4_dst(bytes, Ipv4Addr(10, 0, 0, 10));
  icmp.ip->dst = Ipv4Addr(10, 0, 0, 10);
  EXPECT_EQ(bytes, icmp.encode());

  util::Rng rng(6);
  auto tcp = make_frame({true, false, 9}, rng);
  auto rewritten = tcp;
  set_ipv4_dst(rewritten, Ipv4Addr(10, 0, 0, 10));
  EXPECT_EQ(ipv4_dst_of(rewritten), Ipv4Addr(10, 0, 0, 10));
  EXPECT_EQ(checksum(std::span(rewritten).subspan(14, 20)), 0);
  EXPECT_TRUE(std::equal(tcp.begin() + 34, tcp.end(), rewritten.begin() + 34));

  std::vector<std::uint8_t> runt(20, 0);
  set_ipv4_dst(runt, Ipv4Addr(10, 0, 0, 10));
  EXPECT_EQ(runt, std::vector<std::uint8_t>(20, 0));
}

TEST(FlowKeyHash, DeterministicAndEqualConsistent) {
  util::Rng rng(6);
  FlowKeyHash hash;
  for (int i = 0; i < 100; ++i) {
    const FlowKey key{i % 2 ? FlowProto::kTcp : FlowProto::kUdp,
                      {Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                       static_cast<std::uint16_t>(rng.next())},
                      {Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                       static_cast<std::uint16_t>(rng.next())}};
    const FlowKey copy = key;
    EXPECT_EQ(hash(key), hash(copy));
    EXPECT_EQ(hash(key), FlowKeyHash{}(key));
    EXPECT_NE(hash(key), hash(key.reversed()));
  }
}

TEST(FlowKeyHash, CollisionSanityOnRealisticKeys) {
  // The adversarial-but-realistic case: one subfarm's inmates opening
  // flows with sequential source ports to a handful of destinations.
  // A naive XOR-of-fields hash degenerates here; splitmix finalization
  // must keep the collision count negligible.
  FlowKeyHash hash;
  std::unordered_set<std::size_t> seen;
  std::size_t count = 0;
  for (std::uint32_t inmate = 0; inmate < 16; ++inmate) {
    for (std::uint16_t port = 1024; port < 1024 + 256; ++port) {
      for (std::uint8_t dst = 0; dst < 4; ++dst) {
        const FlowKey key{FlowProto::kTcp,
                          {Ipv4Addr(10, 1, 0, static_cast<std::uint8_t>(
                                                  10 + inmate)),
                           port},
                          {Ipv4Addr(192, 150, 187, dst), 80}};
        seen.insert(hash(key));
        ++count;
      }
    }
  }
  // 16 * 256 * 4 = 16384 keys; allow a tiny number of 64-bit collisions.
  EXPECT_GE(seen.size(), count - 2);
}

}  // namespace
}  // namespace gq::pkt

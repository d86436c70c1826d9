// Property/fuzz tests for the wire parsers that face attacker-shaped
// bytes: the shim protocol codecs (shim::RequestShim / shim::ResponseShim
// / complete_shim_length) and the frame parsers (pkt::decode_frame, the
// zero-copy pkt::FrameView and pkt::parse_ingress, the receive parse every
// device shares, also driven end to end through a net::HostStack), the
// inmate-reachable service parsers (svc::DhcpMessage, svc::DnsMessage,
// svc::HttpParser), and the on-disk loaders (FlowDB segments and store
// manifests, saved trace archives). Each suite runs up to 100k seeded cases built by
// mutating canonical encodings — truncation, padding, bit flips — plus
// purely random buffers. The property under test is "reject or parse,
// never crash or over-read": run these under the ASan preset
// (-DGQ_SANITIZE=address) to turn any out-of-bounds access into a
// failure. Everything is seeded through util::Rng, so a failing case
// replays bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/store.h"
#include "gateway/policy_table.h"
#include "net/stack.h"
#include "netsim/event_loop.h"
#include "orchestrator/job.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "packet/headers.h"
#include "packet/pcap.h"
#include "services/dhcp.h"
#include "services/dns.h"
#include "services/http.h"
#include "shim/shim.h"
#include "shim/table_sync.h"
#include "trace/tap.h"
#include "util/rng.h"

namespace gq {
namespace {

constexpr int kCases = 100'000;

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

// One mutation step: truncate, pad with garbage, or flip random bits.
void mutate(util::Rng& rng, std::vector<std::uint8_t>& buf) {
  switch (rng.below(3)) {
    case 0:  // Truncate to a random prefix (possibly empty).
      buf.resize(rng.below(buf.size() + 1));
      break;
    case 1: {  // Pad with up to 32 random trailing bytes.
      const auto pad = random_bytes(rng, 1 + rng.below(32));
      buf.insert(buf.end(), pad.begin(), pad.end());
      break;
    }
    case 2:  // Flip 1-8 random bits anywhere in the buffer.
      if (!buf.empty()) {
        const auto flips = 1 + rng.below(8);
        for (std::uint64_t i = 0; i < flips; ++i)
          buf[rng.below(buf.size())] ^=
              static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
  }
}

util::Endpoint random_endpoint(util::Rng& rng) {
  return {util::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
          static_cast<std::uint16_t>(rng.next())};
}

/// Any stream-shim version byte other than kShimVersion.
std::uint8_t random_non_v3_version(util::Rng& rng) {
  const auto v = static_cast<std::uint8_t>(rng.below(255));
  return v >= shim::kShimVersion ? static_cast<std::uint8_t>(v + 1) : v;
}

std::string random_text(util::Rng& rng, std::size_t max_len) {
  std::string text(rng.below(max_len + 1), '\0');
  for (auto& c : text) c = static_cast<char>(rng.next());
  return text;
}

TEST(FuzzShim, RequestShimRejectsOrParsesNeverCrashes) {
  util::Rng rng(0xF00D0001);
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> buf;
    if (rng.below(4) == 0) {
      buf = random_bytes(rng, rng.below(64));
    } else {
      shim::RequestShim req;
      req.orig = random_endpoint(rng);
      req.resp = random_endpoint(rng);
      req.vlan = static_cast<std::uint16_t>(rng.next());
      req.nonce_port = static_cast<std::uint16_t>(rng.next());
      buf = req.encode();
      const auto mutations = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    }
    const auto parsed = shim::RequestShim::parse(buf);
    if (parsed) {
      // Whatever parsed must be self-consistent garbage, not wild reads.
      (void)parsed->orig;
      (void)parsed->resp;
      (void)parsed->vlan;
      (void)parsed->nonce_port;
    }
    if (const auto len =
            shim::complete_shim_length(buf, shim::kTypeRequest)) {
      ASSERT_LE(*len, buf.size());
      ASSERT_GE(*len, shim::kRequestShimSize);
    }
  }
}

TEST(FuzzShim, ResponseShimRejectsOrParsesNeverCrashes) {
  util::Rng rng(0xF00D0002);
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> buf;
    if (rng.below(4) == 0) {
      buf = random_bytes(rng, rng.below(160));
    } else {
      shim::ResponseShim resp;
      resp.orig = random_endpoint(rng);
      resp.resp = random_endpoint(rng);
      resp.verdict = static_cast<shim::Verdict>(1 + rng.below(8));
      resp.policy_name = random_text(rng, 40);  // Truncates past 32.
      if (rng.below(2) == 0)
        resp.limit_bytes_per_sec = static_cast<std::int64_t>(rng.next());
      resp.annotation = random_text(rng, 48);
      // Sweep the cache block (cacheability flag, scope including an
      // out-of-range value the parser must reject, TTL, epoch), and give
      // a third of the frames a non-v3 version byte, which both parsers
      // must reject outright.
      resp.cacheable = rng.below(2) == 0;
      resp.cache_scope = static_cast<shim::CacheScope>(rng.below(4));
      resp.cache_ttl_ms = static_cast<std::uint32_t>(rng.next());
      resp.policy_epoch = rng.next();
      buf = resp.encode();
      if (rng.below(3) == 0) {
        buf[7] = random_non_v3_version(rng);
        ASSERT_FALSE(shim::ResponseShim::parse(buf));
        ASSERT_FALSE(shim::complete_shim_length(buf, shim::kTypeResponse));
      }
      const auto mutations = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    }
    std::size_t consumed = 0;
    const auto parsed = shim::ResponseShim::parse(buf, &consumed);
    if (parsed) {
      // consumed must never exceed what we handed in (the over-read
      // property, checked structurally on top of ASan).
      ASSERT_LE(consumed, buf.size());
      ASSERT_GE(consumed, shim::kResponseShimMinSize);
      ASSERT_EQ(buf[7], shim::kShimVersion);
      (void)parsed->verdict;
      (void)parsed->policy_name.size();
      (void)parsed->annotation.size();
      // Any accepted scope is one of the three defined values.
      ASSERT_LE(static_cast<std::uint8_t>(parsed->cache_scope),
                static_cast<std::uint8_t>(shim::CacheScope::kDstPort));
    }
    if (const auto len =
            shim::complete_shim_length(buf, shim::kTypeResponse)) {
      ASSERT_LE(*len, buf.size());
      ASSERT_GE(*len, shim::kResponseShimMinSize);
    }
  }
}

TEST(FuzzShim, ResponseTruncationNeverParsesEitherVersion) {
  // The stream-scanning contract that keeps the gateway synchronized:
  // any strict prefix of a well-formed response shim must be rejected by
  // parse() and complete_shim_length(), and the full frame must be
  // accepted with exactly its own length consumed. With a non-v3
  // version byte, the full frame is rejected too.
  util::Rng rng(0xF00D0007);
  for (int i = 0; i < 512; ++i) {
    shim::ResponseShim resp;
    resp.orig = random_endpoint(rng);
    resp.resp = random_endpoint(rng);
    resp.verdict = static_cast<shim::Verdict>(1 + rng.below(6));
    resp.policy_name = random_text(rng, 32);
    resp.annotation = random_text(rng, 24);
    resp.cacheable = rng.below(2) == 0;
    resp.cache_scope = static_cast<shim::CacheScope>(rng.below(3));
    resp.cache_ttl_ms = static_cast<std::uint32_t>(rng.next());
    resp.policy_epoch = rng.next();
    auto full = resp.encode();
    const bool other_version = rng.below(2) == 0;
    if (other_version) full[7] = random_non_v3_version(rng);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      std::span<const std::uint8_t> prefix(full.data(), cut);
      ASSERT_FALSE(shim::ResponseShim::parse(prefix)) << "cut=" << cut;
      ASSERT_FALSE(shim::complete_shim_length(prefix, shim::kTypeResponse))
          << "cut=" << cut;
    }
    if (other_version) {
      ASSERT_FALSE(shim::ResponseShim::parse(full));
      ASSERT_FALSE(shim::complete_shim_length(full, shim::kTypeResponse));
      continue;
    }
    std::size_t consumed = 0;
    ASSERT_TRUE(shim::ResponseShim::parse(full, &consumed));
    ASSERT_EQ(consumed, full.size());
  }
}

// --- shim wire v4: table-sync frames --------------------------------------

// A canonical compiled table the containment server could plausibly
// push: random epochs, freely overlapping prefixes/port ranges, every
// action opcode, names and annotations up to (and past) the wire caps.
shim::TableSync random_table_sync(util::Rng& rng) {
  shim::TableSync sync;
  sync.epoch = rng.next();
  const auto rules = rng.below(8);
  for (std::uint64_t i = 0; i < rules; ++i) {
    shim::TableRule rule;
    const auto v1 = static_cast<std::uint16_t>(rng.next());
    const auto v2 = static_cast<std::uint16_t>(rng.next());
    rule.vlan_first = std::min(v1, v2);
    rule.vlan_last = std::max(v1, v2);
    rule.dst_prefix = util::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
    rule.prefix_len = static_cast<std::uint8_t>(rng.below(33));
    rule.proto = static_cast<std::uint8_t>(rng.below(3));
    const auto p1 = static_cast<std::uint16_t>(rng.next());
    const auto p2 = static_cast<std::uint16_t>(rng.next());
    rule.port_first = std::min(p1, p2);
    rule.port_last = std::max(p1, p2);
    rule.priority = static_cast<std::uint16_t>(rng.next());
    rule.action = static_cast<shim::TableAction>(1 + rng.below(6));
    rule.target = random_endpoint(rng);
    rule.limit_bytes_per_sec = rng.next();
    rule.policy_name = random_text(rng, 32);
    rule.annotation = random_text(rng, 48);
    sync.rules.push_back(std::move(rule));
  }
  return sync;
}

TEST(FuzzTableSync, ParseRejectsOrParsesNeverCrashes) {
  util::Rng rng(0xF00D0008);
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> buf;
    if (rng.below(4) == 0) {
      buf = random_bytes(rng, rng.below(256));
    } else {
      buf = random_table_sync(rng).encode();
      const auto mutations = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    }
    const auto parsed = shim::TableSync::parse(buf);
    if (!parsed) continue;
    // Whatever survives mutation must still satisfy every structural
    // invariant the gateway's lookup path relies on — a bit-flipped
    // frame may parse, but never into an out-of-range rule.
    for (const auto& rule : parsed->rules) {
      const auto opcode = static_cast<std::uint8_t>(rule.action);
      ASSERT_GE(opcode, 1);
      ASSERT_LE(opcode, 6);
      ASSERT_LE(rule.prefix_len, 32);
      ASSERT_LE(rule.proto, shim::TableRule::kProtoUdp);
      ASSERT_LE(rule.vlan_first, rule.vlan_last);
      ASSERT_LE(rule.port_first, rule.port_last);
      ASSERT_LE(rule.policy_name.size(), 32u);
    }
    // An accepted frame must re-encode and re-parse to the same table
    // (the re-push path: the server repeats syncs over lossy UDP).
    const auto reparsed = shim::TableSync::parse(parsed->encode());
    ASSERT_TRUE(reparsed);
    ASSERT_EQ(reparsed->epoch, parsed->epoch);
    ASSERT_EQ(reparsed->rules.size(), parsed->rules.size());
  }
}

TEST(FuzzTableSync, InstallAndLookupNeverCrashOnFuzzedTables) {
  // End-to-end hardening: any table that parses must be installable,
  // and lookups against it (overlapping prefixes, inverted-feeling
  // ranges, hostile epochs) must return either nullptr or a rule that
  // genuinely matches the queried key.
  util::Rng rng(0xF00D0009);
  gw::PolicyTable table;
  for (int i = 0; i < 20'000; ++i) {
    auto buf = random_table_sync(rng).encode();
    const auto mutations = rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    const auto parsed = shim::TableSync::parse(buf);
    if (parsed) (void)table.install(*parsed);  // Stale epochs may refuse.
    for (int q = 0; q < 4; ++q) {
      const auto vlan = static_cast<std::uint16_t>(rng.next());
      const auto proto = static_cast<std::uint8_t>(rng.below(3));
      const util::Endpoint dst = random_endpoint(rng);
      const auto* hit = table.lookup(vlan, proto, dst);
      if (hit) {
        ASSERT_TRUE(hit->matches(vlan, proto, dst));
      }
    }
  }
}

TEST(FuzzTableSync, EveryTruncationIsRejectedAndFullFrameConsumesExactly) {
  // The UDP framing contract: a datagram cut anywhere is rejected whole
  // (no partial tables are ever installed), and an intact frame parses.
  util::Rng rng(0xF00D000A);
  for (int i = 0; i < 256; ++i) {
    const auto full = random_table_sync(rng).encode();
    for (std::size_t cut = 0; cut < full.size(); ++cut)
      ASSERT_FALSE(shim::TableSync::parse(
          std::span<const std::uint8_t>(full.data(), cut)))
          << "cut=" << cut;
    ASSERT_TRUE(shim::TableSync::parse(full));
  }
}

// Builds a canonical TCP or UDP frame the way the simulator would.
std::vector<std::uint8_t> random_canonical_frame(util::Rng& rng) {
  pkt::DecodedFrame frame;
  frame.eth.dst = util::MacAddr::local(static_cast<std::uint32_t>(rng.next()));
  frame.eth.src = util::MacAddr::local(static_cast<std::uint32_t>(rng.next()));
  if (rng.below(3) == 0)
    frame.eth.vlan = static_cast<std::uint16_t>(rng.below(4096));
  frame.eth.ethertype = pkt::kEtherTypeIpv4;
  pkt::Ipv4Packet ip;
  ip.src = util::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  ip.dst = util::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
  ip.ttl = static_cast<std::uint8_t>(1 + rng.below(255));
  ip.ident = static_cast<std::uint16_t>(rng.next());
  if (rng.below(2) == 0) {
    ip.protocol = pkt::kProtoTcp;
    pkt::TcpSegment tcp;
    tcp.src_port = static_cast<std::uint16_t>(rng.next());
    tcp.dst_port = static_cast<std::uint16_t>(rng.next());
    tcp.seq = static_cast<std::uint32_t>(rng.next());
    tcp.ack = static_cast<std::uint32_t>(rng.next());
    tcp.flags = static_cast<std::uint8_t>(rng.next());
    tcp.payload = random_bytes(rng, rng.below(64));
    frame.tcp = std::move(tcp);
  } else {
    ip.protocol = pkt::kProtoUdp;
    pkt::UdpDatagram udp;
    udp.src_port = static_cast<std::uint16_t>(rng.next());
    udp.dst_port = static_cast<std::uint16_t>(rng.next());
    udp.payload = random_bytes(rng, rng.below(64));
    frame.udp = std::move(udp);
  }
  frame.ip = std::move(ip);
  return frame.encode();
}

TEST(FuzzFrame, DecodeFrameRejectsOrParsesNeverCrashes) {
  util::Rng rng(0xF00D0003);
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> buf;
    if (rng.below(4) == 0) {
      buf = random_bytes(rng, rng.below(128));
    } else {
      buf = random_canonical_frame(rng);
      const auto mutations = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    }
    const auto decoded = pkt::decode_frame(buf);
    if (decoded) {
      // Re-encoding a decode must stay in bounds too.
      (void)decoded->encode();
      (void)decoded->src_port();
      (void)decoded->dst_port();
    }
  }
}

// --- pcap container -------------------------------------------------------

// A canonical multi-record capture to mutate.
std::vector<std::uint8_t> random_canonical_pcap(util::Rng& rng) {
  pkt::PcapWriter writer;
  const auto records = 1 + rng.below(6);
  for (std::uint64_t i = 0; i < records; ++i)
    writer.record(util::TimePoint{static_cast<std::int64_t>(rng.next() %
                                                            1'000'000)},
                  random_bytes(rng, rng.below(96)));
  return {writer.contents().begin(), writer.contents().end()};
}

TEST(FuzzPcap, ParseRejectsOrParsesNeverCrashes) {
  util::Rng rng(0xF00D0005);
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> buf;
    if (rng.below(4) == 0) {
      buf = random_bytes(rng, rng.below(256));
    } else {
      buf = random_canonical_pcap(rng);
      const auto mutations = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    }
    // Reject or parse, never crash, never a giant allocation: every
    // record's caplen is bounded by the snap length.
    for (const auto& record : pkt::parse_pcap(buf)) {
      ASSERT_LE(record.frame.size(), pkt::kPcapSnapLen);
      ASSERT_LE(record.frame.size(), record.orig_len);
    }
  }
}

TEST(FuzzPcap, EveryTruncationYieldsExactValidPrefix) {
  // The documented truncation contract: cutting a capture anywhere
  // returns exactly the records that are structurally complete before
  // the cut — never fewer, never garbage from past it.
  util::Rng rng(0xF00D0006);
  pkt::PcapWriter writer;
  std::vector<std::size_t> frame_sizes;
  std::vector<std::size_t> record_ends;  // Byte offset after each record.
  std::size_t offset = pkt::kPcapFileHeaderSize;
  for (int i = 0; i < 8; ++i) {
    const auto frame = random_bytes(rng, 10 + rng.below(50));
    writer.record(util::TimePoint{i}, frame);
    frame_sizes.push_back(frame.size());
    offset += pkt::kPcapRecordHeaderSize + frame.size();
    record_ends.push_back(offset);
  }
  const std::vector<std::uint8_t> full(writer.contents().begin(),
                                       writer.contents().end());
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const auto parsed = pkt::parse_pcap(
        std::span<const std::uint8_t>(full.data(), cut));
    std::size_t expected = 0;
    while (expected < record_ends.size() && record_ends[expected] <= cut)
      ++expected;
    if (cut < pkt::kPcapFileHeaderSize) expected = 0;
    ASSERT_EQ(parsed.size(), expected) << "cut at byte " << cut;
    for (std::size_t r = 0; r < parsed.size(); ++r)
      ASSERT_EQ(parsed[r].frame.size(), frame_sizes[r]);
  }
}

TEST(FuzzFrame, FrameViewRejectsOrParsesNeverCrashes) {
  util::Rng rng(0xF00D0004);
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> buf;
    if (rng.below(4) == 0) {
      buf = random_bytes(rng, rng.below(128));
    } else {
      buf = random_canonical_frame(rng);
      const auto mutations = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    }
    // kFull verifies both checksums — the strictest accept predicate.
    auto view = pkt::FrameView::parse(buf, pkt::ViewVerify::kFull);
    if (view) {
      (void)view->flow_key();
      // The payload lies inside the buffer and spans payload_len() bytes.
      const auto payload = view->payload();
      ASSERT_EQ(payload.size(), view->payload_len());
      ASSERT_GE(payload.data(), buf.data());
      ASSERT_LE(payload.data() + payload.size(), buf.data() + buf.size());
      if (view->is_tcp()) {
        (void)view->tcp_seq();
        (void)view->tcp_flags();
      }
      // In-place rewrites must only touch bytes inside the buffer; the
      // incremental checksum paths are the interesting write sites.
      view->set_ip_src(util::Ipv4Addr(static_cast<std::uint32_t>(rng.next())));
      view->set_src_port(static_cast<std::uint16_t>(rng.next()));
      if (view->is_tcp())
        view->set_tcp_seq(static_cast<std::uint32_t>(rng.next()));
    }
    (void)pkt::vlan_vid_of(buf);
    (void)pkt::ipv4_dst_of(buf);
    (void)pkt::ipv4_src_of(buf);
    pkt::set_ipv4_dst(buf,
                      util::Ipv4Addr(static_cast<std::uint32_t>(rng.next())));
  }
}

// An ARP or ICMP echo frame, which the view declines and parse_ingress
// decodes.
std::vector<std::uint8_t> random_arp_or_icmp_frame(util::Rng& rng) {
  pkt::DecodedFrame frame;
  frame.eth.dst = util::MacAddr::local(static_cast<std::uint32_t>(rng.next()));
  frame.eth.src = util::MacAddr::local(static_cast<std::uint32_t>(rng.next()));
  const util::Ipv4Addr a(static_cast<std::uint32_t>(rng.next()));
  const util::Ipv4Addr b(static_cast<std::uint32_t>(rng.next()));
  if (rng.below(2) == 0) {
    frame.eth.ethertype = pkt::kEtherTypeArp;
    frame.arp = pkt::ArpMessage{rng.below(2) == 0
                                    ? pkt::ArpMessage::Op::kRequest
                                    : pkt::ArpMessage::Op::kReply,
                                frame.eth.src, a, frame.eth.dst, b};
  } else {
    frame.eth.ethertype = pkt::kEtherTypeIpv4;
    frame.ip = pkt::Ipv4Packet{a, b, pkt::kProtoIcmp, 64, 0, {}};
    frame.icmp = pkt::IcmpMessage{8, 0, static_cast<std::uint16_t>(rng.next()),
                                  static_cast<std::uint16_t>(rng.next()),
                                  random_bytes(rng, rng.below(32))};
  }
  return frame.encode();
}

TEST(FuzzFrame, ParseIngressRejectsOrParsesNeverCrashes) {
  util::Rng rng(0xF00D0005);
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> input;
    if (rng.below(4) == 0) {
      input = random_bytes(rng, rng.below(128));
    } else {
      input = rng.below(4) == 0 ? random_arp_or_icmp_frame(rng)
                                : random_canonical_frame(rng);
      const auto mutations = rng.below(4);
      for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, input);
    }
    // The gateway parses with kIpHeader, every host with kFull.
    for (const auto verify : {pkt::ViewVerify::kIpHeader,
                              pkt::ViewVerify::kFull}) {
      auto buf = input;
      const auto in = pkt::parse_ingress(buf, verify);
      if (!in || !in->view) continue;
      // A returned view is untagged IPv4 over the (possibly re-encoded)
      // buffer, and its payload lies inside that buffer.
      ASSERT_TRUE(in->ipv4);
      ASSERT_FALSE(in->view->vlan());
      const auto payload = in->view->payload();
      ASSERT_EQ(payload.size(), in->view->payload_len());
      ASSERT_GE(payload.data(), buf.data());
      ASSERT_LE(payload.data() + payload.size(), buf.data() + buf.size());
    }
  }
}

// Mutated frames addressed to a host that has a listener, an established
// connection and a bound UDP socket: every receive path, the ingress
// fallback included, must reject or handle them without an out-of-bounds
// read (run under the asan and ubsan presets).
TEST(FuzzFrame, HostStackSurvivesMutatedFrames) {
  const util::MacAddr host_mac = util::MacAddr::local(2);
  const util::MacAddr peer_mac = util::MacAddr::local(1);
  const util::Ipv4Addr host_addr(10, 0, 0, 2);
  const util::Ipv4Addr peer_addr(10, 0, 0, 1);
  sim::EventLoop loop;
  net::HostStack host(loop, "host", host_mac, 7);
  sim::Port wire(loop, "wire");
  sim::Port::connect(host.nic(), wire, util::microseconds(10));
  std::uint32_t host_iss = 0;
  wire.set_rx([&](sim::Frame frame) {
    const auto sent = pkt::decode_frame(frame.bytes);
    if (sent && sent->tcp && sent->tcp->syn()) host_iss = sent->tcp->seq;
  });
  host.configure({host_addr, util::Ipv4Net(util::Ipv4Addr(10, 0, 0, 0), 24),
                  peer_addr, {}});
  std::uint64_t delivered = 0;
  host.listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> data) {
      for (const auto b : data) delivered += b;
    };
  });
  auto sock = host.udp_open(53);
  sock->on_datagram = [&](util::Endpoint, std::vector<std::uint8_t> data) {
    delivered += data.size();
  };

  auto frame_to_host = [&](std::uint8_t proto) {
    pkt::DecodedFrame frame;
    frame.eth = {host_mac, peer_mac, std::nullopt, pkt::kEtherTypeIpv4};
    frame.ip = pkt::Ipv4Packet{peer_addr, host_addr, proto, 64, 0, {}};
    return frame;
  };
  auto inject = [&](std::vector<std::uint8_t> bytes) {
    wire.transmit(sim::Frame{std::move(bytes)});
    loop.run_for(util::milliseconds(1));
  };
  // Establish 10.0.0.1:5000 -> :80 by hand.
  pkt::DecodedFrame arp;
  arp.eth = {util::MacAddr::broadcast(), peer_mac, std::nullopt,
             pkt::kEtherTypeArp};
  arp.arp = pkt::ArpMessage{pkt::ArpMessage::Op::kRequest, peer_mac,
                            peer_addr, util::MacAddr{}, host_addr};
  inject(arp.encode());
  auto syn = frame_to_host(pkt::kProtoTcp);
  syn.tcp = pkt::TcpSegment{5000, 80, 1000, 0, pkt::kTcpSyn, 65535, {}};
  inject(syn.encode());
  auto ack = frame_to_host(pkt::kProtoTcp);
  ack.tcp = pkt::TcpSegment{5000, 80, 1001, host_iss + 1, pkt::kTcpAck,
                            65535, {}};
  inject(ack.encode());
  ASSERT_EQ(host.connection_count(), 1u);

  util::Rng rng(0xF00D0006);
  std::uint32_t seq = 1001;
  for (int i = 0; i < kCases; ++i) {
    pkt::DecodedFrame frame = frame_to_host(pkt::kProtoTcp);
    switch (rng.below(4)) {
      case 0:  // Data on the established connection.
        frame.tcp = pkt::TcpSegment{5000, 80, seq, host_iss + 1,
                                    pkt::kTcpAck | pkt::kTcpPsh, 65535,
                                    random_bytes(rng, rng.below(64))};
        seq += static_cast<std::uint32_t>(frame.tcp->payload.size());
        break;
      case 1:  // Any segment to the listener's or another port.
        frame.tcp = pkt::TcpSegment{
            static_cast<std::uint16_t>(rng.next()),
            static_cast<std::uint16_t>(rng.below(2) == 0 ? 80 : rng.next()),
            static_cast<std::uint32_t>(rng.next()),
            static_cast<std::uint32_t>(rng.next()),
            static_cast<std::uint8_t>(rng.next()), 65535,
            random_bytes(rng, rng.below(64))};
        break;
      case 2:  // A datagram to the bound socket.
        frame = frame_to_host(pkt::kProtoUdp);
        frame.udp = pkt::UdpDatagram{static_cast<std::uint16_t>(rng.next()),
                                     53, random_bytes(rng, rng.below(64))};
        break;
      default: {  // ICMP echo, or ARP.
        auto bytes = random_arp_or_icmp_frame(rng);
        std::copy(host_mac.bytes().begin(), host_mac.bytes().end(),
                  bytes.begin());
        const auto mutations = rng.below(4);
        for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, bytes);
        inject(std::move(bytes));
        continue;
      }
    }
    if (rng.below(4) == 0) frame.eth.vlan = 5;
    auto bytes = frame.encode();
    const auto mutations = rng.below(4);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, bytes);
    inject(std::move(bytes));
  }
  EXPECT_GT(host.ip_rx(), 0u);
  EXPECT_GT(delivered, 0u);
  loop.drop_pending();
}

// --- detonation-job specs -------------------------------------------------

// The JobSpec line parser faces operator/tenant-shaped text rather than
// wire bytes, so the mutations here are textual: token shuffles, random
// splices, charset violations. The properties mirror the codec suites —
// reject or parse, never crash — plus the parser's own contract: any
// accepted spec honors the field caps and round-trips byte-identically
// through str().

const char kIdentChars[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";

std::string random_ident(util::Rng& rng, std::size_t max_len) {
  std::string s(1 + rng.below(max_len), '\0');
  for (auto& c : s) c = kIdentChars[rng.below(sizeof(kIdentChars) - 1)];
  return s;
}

// Printable ASCII, no whitespace, no '=' — the sample-name charset.
std::string random_sample_name(util::Rng& rng) {
  std::string s(1 + rng.below(orch::kMaxSampleLen), '\0');
  for (auto& c : s) {
    do {
      c = static_cast<char>('!' + rng.below('~' - '!' + 1));
    } while (c == '=');
  }
  return s;
}

orch::JobSpec random_valid_spec(util::Rng& rng) {
  orch::JobSpec spec;
  spec.tenant = random_ident(rng, orch::kMaxTenantLen);
  spec.sample = random_sample_name(rng);
  spec.profile = random_ident(rng, orch::kMaxProfileLen);
  spec.budget = util::milliseconds(
      orch::kMinBudgetMs +
      static_cast<std::int64_t>(
          rng.below(orch::kMaxBudgetMs - orch::kMinBudgetMs + 1)));
  return spec;
}

// One textual mutation step: drop/duplicate/shuffle tokens, splice
// random bytes, or flip characters in place.
void mutate_line(util::Rng& rng, std::string& line) {
  switch (rng.below(5)) {
    case 0: {  // Truncate to a random prefix.
      line.resize(rng.below(line.size() + 1));
      break;
    }
    case 1: {  // Splice random bytes (incl. NUL/non-ASCII) anywhere.
      const auto bytes = random_bytes(rng, 1 + rng.below(16));
      line.insert(line.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(line.size() + 1)),
                  bytes.begin(), bytes.end());
      break;
    }
    case 2: {  // Flip 1-4 characters.
      if (!line.empty()) {
        const auto flips = 1 + rng.below(4);
        for (std::uint64_t i = 0; i < flips; ++i)
          line[rng.below(line.size())] ^=
              static_cast<char>(1u << rng.below(8));
      }
      break;
    }
    case 3: {  // Duplicate a whitespace-delimited token (dup-key reject).
      const std::size_t start = rng.below(line.size() + 1);
      const std::size_t from = line.find_first_not_of(' ', start);
      if (from == std::string::npos) break;
      const std::size_t to = std::min(line.find(' ', from), line.size());
      line += ' ';
      line += line.substr(from, to - from);
      break;
    }
    case 4: {  // Perturb whitespace: tabs, runs, leading/trailing pad.
      line.insert(rng.below(line.size() + 1),
                  std::string(1 + rng.below(4), rng.below(2) ? ' ' : '\t'));
      break;
    }
  }
}

TEST(FuzzJobSpec, EveryValidSpecRoundTripsThroughItsCanonicalLine) {
  util::Rng rng(0xF00D000B);
  for (int i = 0; i < kCases; ++i) {
    const orch::JobSpec spec = random_valid_spec(rng);
    const std::string line = spec.str();
    const auto parsed = orch::JobSpec::parse(line);
    ASSERT_TRUE(parsed) << line;
    ASSERT_EQ(*parsed, spec) << line;
    // Canonical form is a fixed point.
    ASSERT_EQ(parsed->str(), line);
  }
}

TEST(FuzzJobSpec, MutatedLinesRejectOrParseWithCapsHonored) {
  util::Rng rng(0xF00D000C);
  for (int i = 0; i < kCases; ++i) {
    std::string line = random_valid_spec(rng).str();
    const auto mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate_line(rng, line);
    const auto parsed = orch::JobSpec::parse(line);
    if (!parsed) continue;
    // Whatever survives mutation must satisfy every documented cap —
    // oversized fields are rejected, never truncated into acceptance.
    ASSERT_FALSE(parsed->tenant.empty());
    ASSERT_LE(parsed->tenant.size(), orch::kMaxTenantLen);
    ASSERT_FALSE(parsed->sample.empty());
    ASSERT_LE(parsed->sample.size(), orch::kMaxSampleLen);
    ASSERT_LE(parsed->profile.size(), orch::kMaxProfileLen);
    ASSERT_GE(parsed->budget.usec, orch::kMinBudgetMs * 1000);
    ASSERT_LE(parsed->budget.usec, orch::kMaxBudgetMs * 1000);
    // And an accepted spec re-parses from its canonical line unchanged
    // (the resubmission path: specs are archived and replayed as text).
    const auto reparsed = orch::JobSpec::parse(parsed->str());
    ASSERT_TRUE(reparsed) << parsed->str();
    ASSERT_EQ(*reparsed, *parsed);
  }
}

TEST(FuzzJobSpec, RandomGarbageNeverCrashesAndRarelyParses) {
  util::Rng rng(0xF00D000D);
  for (int i = 0; i < kCases; ++i) {
    const auto bytes = random_bytes(rng, rng.below(160));
    const std::string line(bytes.begin(), bytes.end());
    const auto parsed = orch::JobSpec::parse(line);
    if (parsed) {
      // Anything accepted from noise must still be a lawful spec.
      ASSERT_FALSE(parsed->tenant.empty());
      ASSERT_LE(parsed->tenant.size(), orch::kMaxTenantLen);
      ASSERT_TRUE(orch::JobSpec::parse(parsed->str()));
    }
  }
}

// --- FlowDB reader (flowdb::Reader::parse) --------------------------------

std::vector<std::uint8_t> random_store(util::Rng& rng) {
  flowdb::Writer writer;
  const auto rows = rng.below(12);
  for (std::uint64_t r = 0; r < rows; ++r) {
    flowdb::Row row;
    row.proto = rng.chance(0.5) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    row.src = random_endpoint(rng);
    row.dst = random_endpoint(rng);
    row.vlan = static_cast<std::uint16_t>(rng.next());
    row.tenant = rng.chance(0.5) ? "acme" : "";
    row.job = rng.below(64);
    row.verdict = static_cast<std::uint8_t>(rng.below(7));
    row.source = static_cast<std::uint8_t>(rng.below(3));
    row.policy = rng.chance(0.5) ? "default" : "";
    row.tap = "fuzz";
    row.packets = rng.below(1000);
    row.bytes = rng.below(100000);
    row.first_usec = rng.range(0, 1'000'000);
    row.last_usec = rng.range(0, 1'000'000);
    const auto locs = rng.below(3);
    for (std::uint64_t l = 0; l < locs; ++l)
      row.locations.push_back({rng.below(8), rng.below(4096)});
    writer.add(std::move(row));
  }
  return writer.encode();
}

/// Corrupt one aligned u64 anywhere in the file, then re-seal the
/// footer hash — a "self-declared-length lie" the integrity check
/// cannot catch, forcing the structural validation to do the work.
void corrupt_and_reseal(util::Rng& rng, std::vector<std::uint8_t>& buf) {
  if (buf.size() < 104) return;
  const std::uint64_t slot = rng.below((buf.size() - 16) / 8);
  std::uint64_t value = rng.next();
  if (rng.chance(0.5)) value = rng.below(2 * buf.size());  // Plausible sizes.
  std::memcpy(buf.data() + slot * 8, &value, 8);
  const std::uint64_t footer_offset = buf.size() - 16;
  const std::uint64_t hash = flowdb::seal_hash({buf.data(), footer_offset});
  std::memcpy(buf.data() + footer_offset, &hash, 8);
}

TEST(FuzzFlowDb, MutatedStoresRejectOrParseNeverCrash) {
  util::Rng rng(0xF00D0011);
  for (int i = 0; i < kCases; ++i) {
    std::vector<std::uint8_t> buf;
    if (rng.below(4) == 0) {
      buf = random_bytes(rng, rng.below(256));
    } else {
      buf = random_store(rng);
      if (rng.chance(0.5)) {
        corrupt_and_reseal(rng, buf);
      } else {
        const auto mutations = 1 + rng.below(3);
        for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
      }
    }
    const auto reader = flowdb::Reader::parse(std::move(buf));
    if (!reader) continue;
    // Whatever parsed must be fully walkable: every row, every column,
    // every dictionary string, every location list — no wild reads
    // (the ASan/UBSan presets turn violations into failures).
    std::uint64_t checksum = 0;
    for (std::uint64_t r = 0; r < reader->rows(); ++r) {
      const auto row = reader->row(r);
      checksum += row.packets + row.bytes + row.tenant.size() +
                  row.policy.size() + row.tap.size() + row.locations.size();
    }
    for (std::uint32_t d = 0; d < reader->dict_size(); ++d)
      checksum += reader->dict(d).size();
    (void)checksum;
  }
}

TEST(FuzzFlowDb, CanonicalStoresAlwaysParse) {
  util::Rng rng(0xF00D0012);
  for (int i = 0; i < 2'000; ++i) {
    auto buf = random_store(rng);
    const auto size = buf.size();
    const auto reader = flowdb::Reader::parse(std::move(buf));
    ASSERT_TRUE(reader) << "store " << i << " (" << size << " bytes)";
  }
}

TEST(FuzzFlowDb, ResealedZoneLiesAreDetectedOrHarmless) {
  // The skip-scan trust boundary: rewrite bytes inside the zone block
  // (ZoneMap min/max bounds, the tenant/endpoint bloom, ChunkZone time
  // bounds) and re-seal the footer hash so integrity checking alone
  // cannot catch it. The reader recomputes the zone from the columns at
  // validation, so any actual change must reject at parse — a lying
  // zone map never survives to mislead the pruning planner. A rewrite
  // that happens to restore the original bytes must still parse.
  util::Rng rng(0xF00D0013);
  for (int i = 0; i < kCases; ++i) {
    auto buf = random_store(rng);
    flowdb::FileHeader header;
    std::memcpy(&header, buf.data(), sizeof header);
    ASSERT_GE(header.zone_bytes, sizeof(flowdb::ZoneMap));
    const std::size_t zone_begin = header.zone_offset;
    const std::size_t zone_end = zone_begin + header.zone_bytes;
    const auto original = buf;
    const auto pokes = 1 + rng.below(4);
    for (std::uint64_t p = 0; p < pokes; ++p) {
      const std::size_t at = zone_begin + rng.below(zone_end - zone_begin);
      buf[at] = static_cast<std::uint8_t>(rng.next());
    }
    const std::size_t footer_offset = buf.size() - 16;
    const std::uint64_t resealed =
        flowdb::seal_hash({buf.data(), footer_offset});
    std::memcpy(buf.data() + footer_offset, &resealed, 8);
    const bool changed = !std::equal(buf.begin() + zone_begin,
                                     buf.begin() + zone_end,
                                     original.begin() + zone_begin);
    const auto reader = flowdb::Reader::parse(std::move(buf));
    if (changed) {
      ASSERT_FALSE(reader) << "case " << i << ": a resealed zone lie parsed";
    } else {
      ASSERT_TRUE(reader) << "case " << i;
    }
  }
}

// --- FlowDB store manifest (flowdb::StoreManifest::parse) -----------------

flowdb::StoreManifest random_manifest(util::Rng& rng) {
  flowdb::StoreManifest manifest;
  std::set<std::string> names;
  const auto n = rng.below(6);
  for (std::uint64_t i = 0; i < n; ++i) {
    flowdb::SegmentInfo info;
    // Mostly the generated pattern, sometimes an arbitrary lawful name
    // (first char forced alphanumeric; the ident charset allows '.'
    // and '-' elsewhere).
    info.file = rng.chance(0.7)
                    ? "segment-" + std::to_string(100000 + i) + ".fdb"
                    : "s" + random_ident(rng, 16) + ".fdb";
    // The ident charset allows '.', so an ident ending in '.' would
    // form a (rejected) ".." with the extension — lawful names only.
    if (info.file.find("..") != std::string::npos) continue;
    if (!names.insert(info.file).second) continue;
    info.rows = rng.below(1u << 20);
    info.bytes = rng.below(1u << 30);
    info.footer_hash = rng.next();
    info.zone_hash = rng.next();
    manifest.segments.push_back(std::move(info));
  }
  return manifest;
}

TEST(FuzzManifest, CanonicalManifestsAlwaysRoundTrip) {
  util::Rng rng(0xF00D0014);
  for (int i = 0; i < kCases; ++i) {
    const auto manifest = random_manifest(rng);
    const auto text = manifest.serialize();
    const auto parsed = flowdb::StoreManifest::parse(text);
    ASSERT_TRUE(parsed) << text;
    ASSERT_EQ(parsed->segments, manifest.segments) << text;
    // Canonical form is a fixed point.
    ASSERT_EQ(parsed->serialize(), text);
  }
}

TEST(FuzzManifest, MutatedManifestsRejectOrParseWithLawfulNames) {
  util::Rng rng(0xF00D0015);
  for (int i = 0; i < kCases; ++i) {
    std::string text = random_manifest(rng).serialize();
    const auto mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate_line(rng, text);
    const auto parsed = flowdb::StoreManifest::parse(text);
    if (!parsed) continue;
    // Whatever survives mutation must honor the path-safety contract
    // the store relies on: one relative component, conservative
    // charset, no dotfiles, no traversal, no duplicates.
    std::set<std::string> seen;
    for (const auto& seg : parsed->segments) {
      ASSERT_FALSE(seg.file.empty());
      ASSERT_LE(seg.file.size(), 200u);
      ASSERT_EQ(seg.file.find('/'), std::string::npos) << seg.file;
      ASSERT_EQ(seg.file.find(".."), std::string::npos) << seg.file;
      ASSERT_NE(seg.file.front(), '.') << seg.file;
      ASSERT_NE(seg.file.front(), '-') << seg.file;
      ASSERT_TRUE(seen.insert(seg.file).second) << seg.file;
    }
    // An accepted manifest re-serializes and re-parses unchanged (the
    // store rewrites the manifest on every append/compaction).
    const auto reparsed = flowdb::StoreManifest::parse(parsed->serialize());
    ASSERT_TRUE(reparsed);
    ASSERT_EQ(reparsed->segments, parsed->segments);
  }
}

TEST(FuzzManifest, RandomGarbageNeverCrashesAndRarelyParses) {
  util::Rng rng(0xF00D0016);
  for (int i = 0; i < kCases; ++i) {
    const auto bytes = random_bytes(rng, rng.below(300));
    const std::string text(bytes.begin(), bytes.end());
    const auto parsed = flowdb::StoreManifest::parse(text);
    if (parsed) {
      // Garbage that parses must still be lawful and round-trip.
      for (const auto& seg : parsed->segments)
        ASSERT_EQ(seg.file.find('/'), std::string::npos);
      ASSERT_TRUE(flowdb::StoreManifest::parse(parsed->serialize()));
    }
  }
}

// --- Trace archives (trace::load_trace: manifest.txt + the flows/ store) --
// A saved archive's flow index is a one-segment FlowDB store; its rows
// come back through flowdb::record_from, which range-checks the enum
// columns Reader leaves unchecked. Property: a load never crashes, a
// resealed out-of-range row always fails it, and any archive that loads
// re-saves and re-loads equal.

trace::FlowRecord random_flow_record(util::Rng& rng) {
  trace::FlowRecord record;
  record.key.proto =
      rng.chance(0.5) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
  record.key.src = random_endpoint(rng);
  record.key.dst = random_endpoint(rng);
  record.vlan = static_cast<std::uint16_t>(rng.next());
  record.packets = rng.below(1u << 20);
  record.bytes = rng.below(1u << 30);
  record.first_time.usec = rng.range(-1'000'000, 1'000'000'000);
  record.last_time.usec = rng.range(-1'000'000, 1'000'000'000);
  if (rng.chance(0.7)) {
    record.has_verdict = true;
    record.verdict = static_cast<shim::Verdict>(1 + rng.below(6));
    record.verdict_source = static_cast<shim::VerdictSource>(rng.below(3));
    record.policy_name = "p" + std::to_string(rng.below(100));
  }
  if (rng.chance(0.5)) record.tenant = "t" + std::to_string(rng.below(16));
  record.job = rng.below(1u << 16);
  const auto locs = rng.below(5);
  for (std::uint64_t l = 0; l < locs; ++l)
    record.locations.push_back({rng.below(64), rng.below(1u << 20)});
  return record;
}

TEST(FuzzTraceArchive, RecordsRoundTripThroughStoreRows) {
  // row_from -> Writer::encode -> Reader::parse -> record_from is the
  // identity on every record, in memory.
  util::Rng rng(0xF00D000E);
  for (int i = 0; i < 2'000; ++i) {
    std::vector<trace::FlowRecord> records(1 + rng.below(8));
    flowdb::Writer writer;
    for (auto& record : records) {
      record = random_flow_record(rng);
      writer.add(flowdb::row_from(record, "fuzz"));
    }
    const auto reader = flowdb::Reader::parse(writer.encode());
    ASSERT_TRUE(reader) << "case " << i;
    ASSERT_EQ(reader->rows(), records.size());
    for (std::size_t r = 0; r < records.size(); ++r) {
      const auto back = flowdb::record_from(reader->row(r));
      ASSERT_TRUE(back) << "case " << i << " row " << r;
      ASSERT_EQ(*back, records[r]) << "case " << i << " row " << r;
    }
  }
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_bytes(const std::string& path, std::string_view bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A rotated archive of a dozen TCP/UDP flows, some with verdicts from
/// every source, saved to a fresh `dir`.
void save_fuzz_archive(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  util::Rng rng(0xF00D0020);
  trace::TraceTap tap("fuzz", {.segment_bytes = 700, .max_segments = 3},
                      nullptr);
  tap.set_context("acme", 7);
  for (int f = 0; f < 12; ++f) {
    const auto frame = random_canonical_frame(rng);
    for (std::uint64_t p = 0; p <= rng.below(3); ++p)
      tap.record(util::TimePoint{f * 100 + static_cast<std::int64_t>(p)},
                 frame);
  }
  int n = 0;
  for (const auto& flow : tap.index().flows())
    if (n++ % 2 == 0)
      tap.annotate(flow.key, flow.vlan,
                   static_cast<shim::Verdict>(1 + rng.below(6)), "p",
                   static_cast<shim::VerdictSource>(n % 3));
  ASSERT_TRUE(tap.save(dir));
}

void expect_same_archive(const trace::TraceTap& a, const trace::TraceTap& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.tenant(), b.tenant());
  EXPECT_EQ(a.job(), b.job());
  EXPECT_EQ(a.archive().config().segment_bytes,
            b.archive().config().segment_bytes);
  EXPECT_EQ(a.archive().config().max_segments,
            b.archive().config().max_segments);
  EXPECT_EQ(a.archive().total_packets(), b.archive().total_packets());
  EXPECT_EQ(a.archive().evicted_segments(), b.archive().evicted_segments());
  EXPECT_EQ(a.archive().evicted_packets(), b.archive().evicted_packets());
  EXPECT_EQ(a.archive().evicted_bytes(), b.archive().evicted_bytes());
  EXPECT_EQ(a.contents(), b.contents());
  EXPECT_TRUE(a.index().flows() == b.index().flows());
}

/// An accepted archive re-saves (to `dir`) and re-loads equal.
void expect_resaves_equal(const trace::TraceTap& loaded,
                          const std::string& dir) {
  ASSERT_TRUE(loaded.save(dir));
  const auto again = trace::load_trace(dir);
  ASSERT_TRUE(again);
  expect_same_archive(loaded, *again);
}

TEST(FuzzTraceArchive, MutatedManifestsRejectOrReloadEqual) {
  const std::string dir = "fuzz_archive_manifest";
  ASSERT_NO_FATAL_FAILURE(save_fuzz_archive(dir));
  const std::string manifest = read_text(dir + "/manifest.txt");
  util::Rng rng(0xF00D000F);
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    std::string text = manifest;
    const auto mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate_line(rng, text);
    write_bytes(dir + "/manifest.txt", text);
    const auto loaded = trace::load_trace(dir);
    if (!loaded) continue;
    ++accepted;
    ASSERT_NO_FATAL_FAILURE(expect_resaves_equal(*loaded, dir + "_resaved"))
        << "case " << i;
  }
  EXPECT_GT(accepted, 0);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::remove_all(dir + "_resaved", ec);
}

TEST(FuzzTraceArchive, ResealedRowLiesAreRejected) {
  // Rewrite a row of the sealed flow segment, re-seal its footer and
  // re-pin it in the store manifest, so only record_from stands
  // between the lie and the loaded index. An out-of-range proto,
  // verdict or source always fails the load; an arbitrary resealed
  // word may load, and then must re-save equal.
  const std::string dir = "fuzz_archive_rows";
  ASSERT_NO_FATAL_FAILURE(save_fuzz_archive(dir));
  const std::string store_manifest_path =
      dir + "/flows/" + std::string(flowdb::kManifestName);
  const auto store_manifest =
      flowdb::StoreManifest::parse(read_text(store_manifest_path));
  ASSERT_TRUE(store_manifest && store_manifest->segments.size() == 1);
  const std::string seg_path = dir + "/flows/" + store_manifest->segments[0].file;
  const std::string seg_text = read_text(seg_path);
  const std::vector<std::uint8_t> pristine(seg_text.begin(), seg_text.end());
  flowdb::FileHeader header;
  std::memcpy(&header, pristine.data(), sizeof header);
  ASSERT_GT(header.row_count, 0u);
  const auto column = [&](const char* name) -> std::size_t {
    for (std::uint32_t c = 0; c < header.column_count; ++c) {
      flowdb::ColumnDesc desc;
      std::memcpy(&desc,
                  pristine.data() + header.columns_offset + c * sizeof desc,
                  sizeof desc);
      if (std::strcmp(desc.name, name) == 0) return desc.offset;
    }
    ADD_FAILURE() << "no column " << name;
    return 0;
  };
  const std::size_t proto = column("proto"), verdict = column("verdict"),
                    source = column("vsrc");

  util::Rng rng(0xF00D0010);
  for (int i = 0; i < 400; ++i) {
    auto seg = pristine;
    const auto row = rng.below(header.row_count);
    const auto lie = rng.below(4);
    if (lie == 0) {
      std::uint8_t value = 0;
      do value = static_cast<std::uint8_t>(rng.next());
      while (value == 6 || value == 17);
      seg[proto + row] = value;
    } else if (lie == 1) {
      seg[verdict + row] = static_cast<std::uint8_t>(7 + rng.below(249));
    } else if (lie == 2) {
      seg[verdict + row] = static_cast<std::uint8_t>(1 + rng.below(6));
      seg[source + row] = static_cast<std::uint8_t>(3 + rng.below(253));
    } else {
      corrupt_and_reseal(rng, seg);
    }
    const std::uint64_t footer_offset = seg.size() - 16;
    const std::uint64_t hash = flowdb::seal_hash({seg.data(), footer_offset});
    std::memcpy(seg.data() + footer_offset, &hash, 8);
    auto pinned = *store_manifest;
    pinned.segments[0].footer_hash = hash;
    write_bytes(store_manifest_path, pinned.serialize());
    write_bytes(seg_path, {reinterpret_cast<const char*>(seg.data()),
                           seg.size()});
    const auto loaded = trace::load_trace(dir);
    if (lie < 3) {
      ASSERT_FALSE(loaded) << "case " << i << ": resealed lie " << lie
                           << " on row " << row << " loaded";
    } else if (loaded) {
      ASSERT_NO_FATAL_FAILURE(expect_resaves_equal(*loaded, dir + "_resaved"))
        << "case " << i;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::remove_all(dir + "_resaved", ec);
}

// --- Inmate-reachable service messages (svc::DhcpMessage, svc::DnsMessage)
// An inmate's DHCP chatter reaches the gateway's in-path responder, and
// its DNS queries reach the containment DNS policy and the farm resolver,
// which re-encode what they accept: an accepted message must re-encode
// to bytes that parse back to the same message.

util::Ipv4Addr random_addr(util::Rng& rng) {
  return util::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
}

std::optional<util::Ipv4Addr> maybe_addr(util::Rng& rng) {
  if (rng.chance(0.5)) return random_addr(rng);
  return std::nullopt;
}

svc::DhcpMessage random_dhcp(util::Rng& rng) {
  svc::DhcpMessage msg;
  msg.is_reply = rng.chance(0.5);
  msg.xid = static_cast<std::uint32_t>(rng.next());
  std::array<std::uint8_t, 6> mac{};
  for (auto& b : mac) b = static_cast<std::uint8_t>(rng.next());
  msg.client_mac = util::MacAddr(mac);
  msg.ciaddr = random_addr(rng);
  msg.yiaddr = random_addr(rng);
  msg.type = static_cast<svc::DhcpType>(1 + rng.below(7));
  msg.requested_ip = maybe_addr(rng);
  msg.server_id = maybe_addr(rng);
  msg.subnet_mask = maybe_addr(rng);
  msg.router = maybe_addr(rng);
  msg.dns = maybe_addr(rng);
  return msg;
}

// The property every accepted message must hold: it re-encodes to bytes
// that parse back to itself.
template <typename Message>
void expect_reencodes_equal(const Message& parsed) {
  const auto reparsed = Message::parse(parsed.encode());
  ASSERT_TRUE(reparsed);
  ASSERT_TRUE(*reparsed == parsed);
}

TEST(FuzzDhcp, MutatedMessagesRejectOrReencodeEqual) {
  util::Rng rng(0xF00D0017);
  for (int i = 0; i < kCases / 4; ++i) {
    const auto msg = random_dhcp(rng);
    auto buf = msg.encode();
    const auto canonical = svc::DhcpMessage::parse(buf);
    ASSERT_TRUE(canonical && *canonical == msg) << "case " << i;
    const auto mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    if (const auto parsed = svc::DhcpMessage::parse(buf)) {
      ASSERT_NO_FATAL_FAILURE(expect_reencodes_equal(*parsed)) << "case " << i;
    }
  }
}

TEST(FuzzDhcp, RandomGarbageNeverCrashes) {
  util::Rng rng(0xF00D0018);
  const auto header = random_dhcp(rng).encode();
  for (int i = 0; i < kCases / 4; ++i) {
    // Half pure noise, half a lawful fixed header (through the magic
    // cookie) followed by random options.
    std::vector<std::uint8_t> buf;
    if (rng.chance(0.5)) buf.assign(header.begin(), header.begin() + 240);
    const auto noise = random_bytes(rng, rng.below(320));
    buf.insert(buf.end(), noise.begin(), noise.end());
    if (const auto parsed = svc::DhcpMessage::parse(buf)) {
      ASSERT_NO_FATAL_FAILURE(expect_reencodes_equal(*parsed)) << "case " << i;
    }
  }
}

svc::DnsMessage random_dns(util::Rng& rng) {
  static constexpr char kNameChars[] = "abcdefghijklmnopqrstuvwxyz0123456789-";
  svc::DnsMessage msg;
  msg.id = static_cast<std::uint16_t>(rng.next());
  msg.is_response = rng.chance(0.5);
  msg.recursion_desired = rng.chance(0.5);
  msg.rcode = static_cast<std::uint8_t>(rng.below(16));
  const auto labels = 1 + rng.below(4);
  for (std::uint64_t l = 0; l < labels; ++l) {
    if (l > 0) msg.qname += '.';
    const auto len = 1 + rng.below(20);
    for (std::uint64_t c = 0; c < len; ++c)
      msg.qname += kNameChars[rng.below(sizeof(kNameChars) - 1)];
  }
  msg.qtype = static_cast<std::uint16_t>(rng.next());
  const auto answers = rng.below(4);
  for (std::uint64_t a = 0; a < answers; ++a)
    msg.answers.push_back(random_addr(rng));
  return msg;
}

TEST(FuzzDns, MutatedMessagesRejectOrReencodeEqual) {
  util::Rng rng(0xF00D0019);
  for (int i = 0; i < kCases / 4; ++i) {
    const auto msg = random_dns(rng);
    auto buf = msg.encode();
    const auto canonical = svc::DnsMessage::parse(buf);
    ASSERT_TRUE(canonical && *canonical == msg) << "case " << i;
    const auto mutations = 1 + rng.below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
    if (const auto parsed = svc::DnsMessage::parse(buf)) {
      ASSERT_NO_FATAL_FAILURE(expect_reencodes_equal(*parsed)) << "case " << i;
    }
  }
}

TEST(FuzzDns, RandomGarbageNeverCrashes) {
  util::Rng rng(0xF00D001A);
  for (int i = 0; i < kCases / 4; ++i) {
    // Half pure noise, half a lawful 12-byte header (one question)
    // followed by random name and record bytes.
    std::vector<std::uint8_t> buf;
    if (rng.chance(0.5)) {
      buf = random_bytes(rng, 12);
      buf[4] = 0;
      buf[5] = 1;  // QDCOUNT 1.
      buf[6] = 0;
      buf[7] = static_cast<std::uint8_t>(rng.below(4));  // ANCOUNT.
    }
    const auto noise = random_bytes(rng, rng.below(96));
    buf.insert(buf.end(), noise.begin(), noise.end());
    if (const auto parsed = svc::DnsMessage::parse(buf)) {
      ASSERT_NO_FATAL_FAILURE(expect_reencodes_equal(*parsed)) << "case " << i;
    }
  }
}


// --- HTTP (svc::HttpRequestParser / svc::HttpResponseParser) -------------
// The REWRITE proxies and the HTTP services parse inmate HTTP as it
// arrives, one TCP segment at a time. Properties: no crash; the same
// bytes in any chunking give the same messages, or the same failure;
// an accepted message re-encodes and re-parses equal, apart from the
// Content-Length framing encode() adds where a message lacks one.

constexpr char kHttpTokenChars[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_./%?=&";

std::string random_http_token(util::Rng& rng, std::size_t max_len) {
  std::string token(1 + rng.below(max_len), '\0');
  for (auto& c : token)
    c = kHttpTokenChars[rng.below(sizeof(kHttpTokenChars) - 1)];
  return token;
}

template <typename Message>
void add_random_headers(util::Rng& rng, Message& msg) {
  static constexpr const char* kNames[] = {"Host", "User-Agent", "Accept",
                                           "Connection", "X-Bot", "Cookie"};
  const auto n = rng.below(5);
  for (std::uint64_t h = 0; h < n; ++h) {
    std::string value = random_http_token(rng, 12);
    if (rng.chance(0.3)) value += " " + random_http_token(rng, 12);
    msg.headers.emplace_back(rng.chance(0.7)
                                 ? kNames[rng.below(std::size(kNames))]
                                 : random_http_token(rng, 10),
                             value);
  }
  if (rng.chance(0.5)) msg.body = random_text(rng, 48);
}

svc::HttpRequest random_http_request(util::Rng& rng) {
  static constexpr const char* kMethods[] = {"GET", "POST", "HEAD", "PUT"};
  svc::HttpRequest req;
  req.method = kMethods[rng.below(std::size(kMethods))];
  req.path = "/" + random_http_token(rng, 24);
  req.version = rng.chance(0.8) ? "HTTP/1.1" : "HTTP/1.0";
  add_random_headers(rng, req);
  return req;
}

svc::HttpResponse random_http_response(util::Rng& rng) {
  svc::HttpResponse rsp;
  rsp.status = static_cast<int>(100 + rng.below(500));
  rsp.reason = rng.chance(0.2) ? "" : random_http_token(rng, 10);
  if (rng.chance(0.3)) rsp.reason += " " + random_http_token(rng, 10);
  rsp.version = rng.chance(0.8) ? "HTTP/1.1" : "HTTP/1.0";
  add_random_headers(rng, rsp);
  return rsp;
}

template <typename Message>
struct HttpRun {
  std::vector<Message> messages;
  bool failed = false;
};

/// Feed `bytes` in chunks of 1..max_chunk bytes (all at once when
/// `chunker` is null), draining take() after each, as the services do.
template <typename Message>
HttpRun<Message> run_http_parser(std::string_view bytes, util::Rng* chunker,
                                 std::size_t max_chunk = 48) {
  svc::HttpParser<Message> parser;
  HttpRun<Message> run;
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t n =
        chunker ? std::min<std::size_t>(1 + chunker->below(max_chunk),
                                        bytes.size() - at)
                : bytes.size();
    parser.feed({reinterpret_cast<const std::uint8_t*>(bytes.data() + at), n});
    at += n;
    while (auto msg = parser.take()) run.messages.push_back(std::move(*msg));
  }
  run.failed = parser.failed();
  return run;
}

/// The message encode() frames: a response, or a request with a body,
/// that has no Content-Length gains one.
template <typename Message>
Message framed(Message msg) {
  if (!msg.header("Content-Length") &&
      (std::is_same_v<Message, svc::HttpResponse> || !msg.body.empty()))
    msg.set_header("Content-Length", std::to_string(msg.body.size()));
  return msg;
}

template <typename Message>
void expect_http_stream_properties(std::string_view bytes, util::Rng& rng) {
  const auto whole = run_http_parser<Message>(bytes, nullptr);
  const auto chunked = run_http_parser<Message>(bytes, &rng);
  ASSERT_EQ(whole.failed, chunked.failed);
  ASSERT_TRUE(whole.messages == chunked.messages);
  for (const auto& msg : whole.messages) {
    const auto again = run_http_parser<Message>(msg.encode(), nullptr);
    ASSERT_FALSE(again.failed);
    ASSERT_EQ(again.messages.size(), 1u);
    ASSERT_TRUE(again.messages[0] == framed(msg));
  }
}

template <typename Message>
void fuzz_http(std::uint64_t seed, Message (*random_message)(util::Rng&)) {
  util::Rng rng(seed);
  for (int i = 0; i < kCases / 10; ++i) {
    std::string bytes;
    if (rng.below(5) == 0) {
      const auto noise = random_bytes(rng, rng.below(200));
      bytes.assign(noise.begin(), noise.end());
    } else {
      // One to three pipelined messages, then mutated.
      for (std::uint64_t m = 0; m <= rng.below(3); ++m)
        bytes += random_message(rng).encode();
      std::vector<std::uint8_t> buf(bytes.begin(), bytes.end());
      const auto mutations = rng.below(4);
      for (std::uint64_t m = 0; m < mutations; ++m) mutate(rng, buf);
      bytes.assign(buf.begin(), buf.end());
    }
    ASSERT_NO_FATAL_FAILURE(expect_http_stream_properties<Message>(bytes, rng))
        << "case " << i;
  }
}

TEST(FuzzHttp, RequestStreamsChunkInvariantAndReencodeEqual) {
  fuzz_http<svc::HttpRequest>(0xF00D001B, random_http_request);
}

TEST(FuzzHttp, ResponseStreamsChunkInvariantAndReencodeEqual) {
  fuzz_http<svc::HttpResponse>(0xF00D001C, random_http_response);
}

TEST(FuzzHttp, HeadsNearTheSizeCapChunkInvariant) {
  // Regression: the 64 KiB head cap was checked against the buffered
  // bytes only while the blank line had not arrived, so a head just
  // over the cap parsed when it came in one piece and failed when it
  // came in TCP-segment-sized ones. Heads of 64 KiB +- 8 bytes and
  // more than a segment over, with a pipelined request behind, must get
  // one answer either way.
  util::Rng rng(0xF00D001D);
  const std::size_t cap = 64 * 1024;
  std::vector<std::size_t> heads = {cap + 1500, cap + 3000};
  for (std::size_t head = cap - 8; head <= cap + 8; ++head)
    heads.push_back(head);
  for (const std::size_t head : heads) {
    svc::HttpRequest req;
    req.headers.emplace_back("X-Pad", "");
    const std::size_t base = req.encode().size();
    req.headers[0].second.assign(head - base, 'p');
    ASSERT_EQ(req.encode().size(), head);
    const std::string bytes = req.encode() + svc::HttpRequest{}.encode();
    const auto whole = run_http_parser<svc::HttpRequest>(bytes, nullptr);
    const auto chunked =
        run_http_parser<svc::HttpRequest>(bytes, &rng, 1460);
    EXPECT_EQ(whole.failed, chunked.failed) << "head " << head;
    EXPECT_EQ(whole.messages.size(), chunked.messages.size())
        << "head " << head;
    EXPECT_EQ(whole.messages.size(), head <= cap ? 2u : 0u)
        << "head " << head;
  }
}

}  // namespace
}  // namespace gq

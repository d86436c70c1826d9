// Golden-output scenarios for the established-flow datapath. Each test
// drives one class of established-flow frame through a miniature farm —
// RST and FIN in both directions, a retransmitted SYN-ACK and a repeated
// inmate SYN, LIMIT drops both ways, UDP both ways, a TCP REWRITE relay
// through the containment server, a cold ARP cache on the management
// and upstream legs, a frame for an inmate whose binding is gone, and
// non-canonical frames — and pins a hash of everything observable: the
// upstream tap, the subfarm (inmate-side) and management trace records,
// the format_event stream, and the gateway's metrics. Each scenario runs
// past the flow timeout, so every flow closes and reports its byte
// counts. Any change to forwarding bytes, trace timing, counters, or
// event order moves a hash. The same farm also takes mutated ingress on
// every leg, which must neither crash it nor let an inmate out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "containment/handlers.h"
#include "containment/policies.h"
#include "containment/server.h"
#include "gateway/gateway.h"
#include "gateway/router.h"
#include "net/stack.h"
#include "netsim/event_loop.h"
#include "netsim/vlan_switch.h"
#include "obs/events.h"
#include "packet/frame_view.h"
#include "services/dhcp.h"
#include "services/http.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace gq {
namespace {

using util::Endpoint;
using util::Ipv4Addr;
using util::Ipv4Net;

constexpr std::uint16_t kCsPort = 6666;
const Ipv4Addr kGwMgmt(10, 3, 0, 1);
const Ipv4Addr kGwUpstream(203, 0, 113, 1);
const Ipv4Addr kCsAddr(10, 3, 0, 2);
const Ipv4Addr kSinkAddr(10, 3, 0, 3);
const Ipv4Addr kWebAddr(192, 150, 187, 12);
// Addresses nobody answers ARP for until the test injects a reply.
const Endpoint kGhostUpstream{Ipv4Addr(192, 150, 187, 99), 80};
const Endpoint kGhostMgmt{Ipv4Addr(10, 3, 0, 77), 9999};
const Ipv4Net kMgmtNet(Ipv4Addr(10, 3, 0, 0), 24);
const Ipv4Net kInternalNet(Ipv4Addr(10, 0, 0, 0), 24);
const Ipv4Net kExternalNet(Ipv4Addr(198, 18, 0, 0), 24);
const util::MacAddr kRawMac = util::MacAddr::local(0x3FF);

struct Golden {
  std::uint64_t upstream = 0;
  std::uint64_t inmate = 0;
  std::uint64_t mgmt = 0;
  std::uint64_t events = 0;
  std::uint64_t metrics = 0;
};

std::uint64_t fnv(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv_u64(std::uint64_t h, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv(h, bytes);
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

std::uint64_t hash_records(const trace::TraceTap& tap) {
  std::uint64_t h = kFnvBasis;
  for (const auto& record : tap.archive().records()) {
    h = fnv_u64(h, static_cast<std::uint64_t>(record.time.usec));
    h = fnv_u64(h, record.frame.size());
    h = fnv(h, record.frame);
  }
  return h;
}

std::span<const std::uint8_t> as_bytes(const std::string& text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

// Miniature farm: two inmates, a containment server, an idle sink host,
// an external web server, and one raw injection port on each of the
// upstream and management networks.
struct GoldenFarm : ::testing::Test {
  sim::EventLoop loop;
  sim::VlanSwitch inmate_sw{loop, "isw", 6};
  sim::VlanSwitch mgmt_sw{loop, "msw", 6};
  sim::VlanSwitch ext_sw{loop, "esw", 6};
  std::unique_ptr<gw::Gateway> gateway;
  gw::SubfarmRouter* subfarm = nullptr;

  net::HostStack cs_host{loop, "cs", util::MacAddr::local(0x101), 11};
  net::HostStack sink_host{loop, "sink", util::MacAddr::local(0x102), 12};
  net::HostStack web{loop, "web", util::MacAddr::local(0x103), 13};
  net::HostStack inmate1{loop, "inmate1", util::MacAddr::local(0x201), 21};
  net::HostStack inmate2{loop, "inmate2", util::MacAddr::local(0x202), 22};
  sim::Port raw_ext{loop, "raw.ext"};
  sim::Port raw_mgmt{loop, "raw.mgmt"};
  util::MacAddr gw_upstream_mac;
  util::MacAddr gw_mgmt_mac;
  std::unique_ptr<svc::DhcpClient> dhcp1, dhcp2;
  std::unique_ptr<cs::ContainmentServer> cs;

  std::vector<std::vector<std::uint8_t>> upstream_emitted;
  std::vector<util::TimePoint> upstream_times;
  std::vector<std::string> event_lines;

  void SetUp() override {
    gw::GatewayConfig gwc;
    gwc.upstream_addr = kGwUpstream;
    gwc.mgmt_addr = kGwMgmt;
    gwc.mgmt_net = kMgmtNet;
    gateway = std::make_unique<gw::Gateway>(loop, gwc);
    gateway->telemetry().bus().subscribe([this](const obs::FarmEvent& event) {
      event_lines.push_back(obs::format_event(event));
    });
    gateway->set_upstream_tap(
        [this](util::TimePoint at, const std::vector<std::uint8_t>& bytes) {
          upstream_times.push_back(at);
          upstream_emitted.push_back(bytes);
        });

    gw::SubfarmConfig sfc;
    sfc.name = "GoldenFarm";
    sfc.vlan_first = 16;
    sfc.vlan_last = 17;
    sfc.internal_net = kInternalNet;
    sfc.external_net = kExternalNet;
    sfc.containment_server = {kCsAddr, kCsPort};
    subfarm = &gateway->add_subfarm(sfc);

    inmate_sw.set_access(0, 16);
    inmate_sw.set_access(1, 17);
    inmate_sw.set_trunk_all(5);
    sim::Port::connect(inmate1.nic(), inmate_sw.port(0),
                       util::microseconds(20));
    sim::Port::connect(inmate2.nic(), inmate_sw.port(1),
                       util::microseconds(20));
    sim::Port::connect(gateway->inmate_port(), inmate_sw.port(5),
                       util::microseconds(20));

    for (std::size_t port : {0, 1, 2, 5}) mgmt_sw.set_access(port, 2);
    sim::Port::connect(cs_host.nic(), mgmt_sw.port(0), util::microseconds(20));
    sim::Port::connect(sink_host.nic(), mgmt_sw.port(1),
                       util::microseconds(20));
    sim::Port::connect(raw_mgmt, mgmt_sw.port(2), util::microseconds(20));
    sim::Port::connect(gateway->mgmt_port(), mgmt_sw.port(5),
                       util::microseconds(20));

    for (std::size_t port : {0, 1, 5}) ext_sw.set_access(port, 3);
    sim::Port::connect(web.nic(), ext_sw.port(0), util::microseconds(100));
    sim::Port::connect(raw_ext, ext_sw.port(1), util::microseconds(100));
    sim::Port::connect(gateway->upstream_port(), ext_sw.port(5),
                       util::microseconds(100));
    // The raw ports learn the gateway's leg MACs from its ARP requests.
    raw_ext.set_rx([this](sim::Frame frame) {
      if (auto f = pkt::decode_frame(frame.bytes);
          f && f->arp && f->arp->sender_ip == kGwUpstream)
        gw_upstream_mac = f->arp->sender_mac;
    });
    raw_mgmt.set_rx([this](sim::Frame frame) {
      if (auto f = pkt::decode_frame(frame.bytes);
          f && f->arp && f->arp->sender_ip == kGwMgmt)
        gw_mgmt_mac = f->arp->sender_mac;
    });

    cs_host.configure({kCsAddr, kMgmtNet, kGwMgmt, {}});
    sink_host.configure({kSinkAddr, kMgmtNet, kGwMgmt, {}});
    web.configure({kWebAddr, Ipv4Net(Ipv4Addr(), 0), Ipv4Addr(), {}});
    cs = std::make_unique<cs::ContainmentServer>(cs_host, kCsPort, kGwMgmt);

    dhcp1 = std::make_unique<svc::DhcpClient>(inmate1, nullptr);
    dhcp2 = std::make_unique<svc::DhcpClient>(inmate2, nullptr);
    dhcp1->start();
    dhcp2->start();
    loop.run_for(util::seconds(5));
    ASSERT_TRUE(inmate1.configured());
    ASSERT_TRUE(inmate2.configured());
  }

  void TearDown() override { loop.drop_pending(); }

  void bind(std::shared_ptr<cs::Policy> policy) {
    cs->bind_policy(16, 19, std::move(policy));
  }

  [[nodiscard]] const gw::InmateBinding& binding1() {
    return *subfarm->inmates().by_vlan(16);
  }

  // Web server on port 80 that answers every chunk with "re:<chunk>".
  void listen_echo() {
    web.listen(80, [](std::shared_ptr<net::TcpConnection> conn) {
      std::weak_ptr<net::TcpConnection> weak = conn;
      conn->on_data = [weak](std::span<const std::uint8_t> data) {
        if (auto c = weak.lock()) {
          c->send("re:" + std::string(data.begin(), data.end()));
        }
      };
    });
  }

  // The first (or last) recorded frame satisfying `pred`.
  template <typename Pred>
  std::vector<std::uint8_t> find_frame(
      const std::vector<pkt::PcapRecord>& records, Pred pred,
      bool last = false) {
    std::vector<std::uint8_t> found;
    for (const auto& record : records) {
      auto frame = pkt::decode_frame(record.frame);
      if (!frame || !frame->ip || !pred(*frame)) continue;
      found = record.frame;
      if (!last) break;
    }
    if (found.empty()) ADD_FAILURE() << "no matching frame recorded";
    return found;
  }

  static std::vector<std::uint8_t> tcp_frame(util::MacAddr src_mac,
                                             util::MacAddr dst_mac,
                                             Endpoint src, Endpoint dst,
                                             std::uint8_t flags,
                                             std::uint32_t seq,
                                             std::uint32_t ack,
                                             std::string_view payload) {
    pkt::DecodedFrame frame;
    frame.eth.src = src_mac;
    frame.eth.dst = dst_mac;
    frame.eth.ethertype = pkt::kEtherTypeIpv4;
    frame.ip = pkt::Ipv4Packet{};
    frame.ip->src = src.addr;
    frame.ip->dst = dst.addr;
    frame.tcp = pkt::TcpSegment{};
    frame.tcp->src_port = src.port;
    frame.tcp->dst_port = dst.port;
    frame.tcp->flags = flags;
    frame.tcp->seq = seq;
    frame.tcp->ack = ack;
    frame.tcp->payload.assign(payload.begin(), payload.end());
    return frame.encode();
  }

  // A recorded frame re-sent from a raw port: restamped with the raw
  // port's source MAC so the switch does not move the original sender.
  static sim::Frame resend(std::vector<std::uint8_t> bytes) {
    std::copy(kRawMac.bytes().begin(), kRawMac.bytes().end(),
              bytes.begin() + 6);
    return sim::Frame{std::move(bytes)};
  }

  static std::vector<std::uint8_t> arp_reply(util::MacAddr to_mac,
                                             Ipv4Addr to_ip,
                                             Ipv4Addr claimed) {
    pkt::DecodedFrame frame;
    frame.eth.src = kRawMac;
    frame.eth.dst = to_mac;
    frame.eth.ethertype = pkt::kEtherTypeArp;
    frame.arp = pkt::ArpMessage{pkt::ArpMessage::Op::kReply, kRawMac, claimed,
                                to_mac, to_ip};
    return frame.encode();
  }

  // The inmate's SYN toward `dst` as the subfarm trace recorded it.
  pkt::TcpSegment inmate_syn_to(Endpoint dst) {
    const auto bytes = find_frame(
        subfarm->trace().archive().records(), [&](const auto& f) {
          return f.tcp && f.tcp->syn() && !f.tcp->has_ack() &&
                 f.ip->dst == dst.addr && f.tcp->dst_port == dst.port;
        });
    return *pkt::decode_frame(bytes)->tcp;
  }

  Golden observed() {
    Golden g;
    g.upstream = kFnvBasis;
    for (std::size_t i = 0; i < upstream_emitted.size(); ++i) {
      g.upstream =
          fnv_u64(g.upstream, static_cast<std::uint64_t>(upstream_times[i].usec));
      g.upstream = fnv_u64(g.upstream, upstream_emitted[i].size());
      g.upstream = fnv(g.upstream, upstream_emitted[i]);
    }
    g.inmate = hash_records(subfarm->trace());
    g.mgmt = hash_records(gateway->mgmt_trace());
    g.events = kFnvBasis;
    for (const auto& line : event_lines) {
      g.events = fnv(g.events, as_bytes(line));
      g.events = fnv_u64(g.events, '\n');
    }
    g.metrics = fnv(kFnvBasis,
                    as_bytes(gateway->telemetry().metrics().render_text()));
    return g;
  }

  void expect_golden(const Golden& want) {
    loop.run_for(util::minutes(6));  // Past flow_timeout (5 min).
    const Golden got = observed();
    EXPECT_EQ(got.upstream, want.upstream);
    EXPECT_EQ(got.inmate, want.inmate);
    EXPECT_EQ(got.mgmt, want.mgmt);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.metrics, want.metrics);
    if (got.upstream != want.upstream || got.inmate != want.inmate ||
        got.mgmt != want.mgmt || got.events != want.events ||
        got.metrics != want.metrics) {
      char line[200];
      std::snprintf(line, sizeof(line),
                    "observed {0x%016llxull, 0x%016llxull, 0x%016llxull, "
                    "0x%016llxull, 0x%016llxull}",
                    static_cast<unsigned long long>(got.upstream),
                    static_cast<unsigned long long>(got.inmate),
                    static_cast<unsigned long long>(got.mgmt),
                    static_cast<unsigned long long>(got.events),
                    static_cast<unsigned long long>(got.metrics));
      ADD_FAILURE() << line << " (" << upstream_emitted.size()
                    << " upstream frames, " << event_lines.size()
                    << " events)";
    }
  }
};

TEST_F(GoldenFarm, InmateRstOnEstablishedFlow) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  listen_echo();
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [conn] { conn->send("hello"); };
  conn->on_data = [conn](std::span<const std::uint8_t>) { conn->abort(); };
  loop.run_for(util::seconds(5));
  expect_golden({0x64299c3d1697cc63ull, 0x7a3a6a0f66f42a8full,
                 0xf4deb6828944e583ull, 0xd1c272cbf764b4b2ull,
                 0xc7438742f57178ecull});
}

TEST_F(GoldenFarm, TargetRstOnEstablishedFlow) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [](std::shared_ptr<net::TcpConnection> conn) {
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) {
        c->send("bye");
        c->abort();
      }
    };
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [conn] { conn->send("hello"); };
  loop.run_for(util::seconds(5));
  expect_golden({0x9bdff7f557225f9aull, 0x8c9197d6f02567b8ull,
                 0xf4deb6828944e583ull, 0xb6b8f1e849a5a212ull,
                 0xc7ff9c494f2c90e9ull});
}

TEST_F(GoldenFarm, RetransmittedSynAckAndRepeatedInmateSyn) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  listen_echo();
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [conn] { conn->send("one"); };
  loop.run_for(util::seconds(2));
  // Replay the target's SYN-ACK and the inmate's opening SYN onto the
  // now-established flow.
  const auto syn_ack = find_frame(
      gateway->upstream_trace().archive().records(), [](const auto& f) {
        return f.tcp && f.tcp->syn() && f.tcp->has_ack() &&
               f.ip->src == kWebAddr;
      });
  raw_ext.transmit(resend(syn_ack));
  const auto syn = find_frame(
      gateway->inmate_rx_trace().archive().records(), [](const auto& f) {
        return f.tcp && f.tcp->syn() && !f.tcp->has_ack();
      });
  loop.run_for(util::milliseconds(200));
  gateway->inject_inmate_frame(syn);
  loop.run_for(util::milliseconds(200));
  conn->send("two");
  loop.run_for(util::seconds(3));
  expect_golden({0xe083ebbd494c7161ull, 0xf35273f15dbcc21bull,
                 0xf4deb6828944e583ull, 0x43391589aad04bf6ull,
                 0x74270c396fd7f9f3ull});
}

TEST_F(GoldenFarm, FinInBothDirections) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [](std::shared_ptr<net::TcpConnection> conn) {
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) {
        c->send("done");
        c->close();
      }
    };
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [conn] { conn->send("request"); };
  conn->on_remote_close = [conn] { conn->close(); };
  loop.run_for(util::seconds(10));
  expect_golden({0x2f21f5cfa8731796ull, 0xffc046fd24a23065ull,
                 0xf4deb6828944e583ull, 0x9cbfb81f03402ebdull,
                 0xe63f6fab8b127583ull});
}

TEST_F(GoldenFarm, LimitDropsInBothDirections) {
  class LimitPolicy : public cs::Policy {
   public:
    LimitPolicy() : Policy("Limit2k") {}
    cs::Decision decide(const cs::FlowInfo&) override {
      return cs::Decision::limit(2048);
    }
  };
  bind(std::make_shared<LimitPolicy>());
  const std::string blob(12'000, 'L');
  std::size_t at_web = 0;
  std::size_t at_inmate = 0;
  web.listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_data = [&, weak](std::span<const std::uint8_t> data) {
      at_web += data.size();
      if (at_web == blob.size()) {
        if (auto c = weak.lock()) c->send(blob);
      }
    };
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  conn->on_data = [&](std::span<const std::uint8_t> data) {
    at_inmate += data.size();
  };
  loop.run_for(util::seconds(40));
  EXPECT_EQ(at_web, blob.size());
  EXPECT_EQ(at_inmate, blob.size());
  expect_golden({0xc0fe6fa21d1243bcull, 0x73d900c02dd93858ull,
                 0xc03d5dd7b21acc0eull, 0x3cf4438fb72945a1ull,
                 0x53a2bd00d57cdec6ull});
}

TEST_F(GoldenFarm, UdpInBothDirections) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  auto server = web.udp_open(53);
  std::weak_ptr<net::UdpSocket> weak_server = server;
  server->on_datagram = [weak_server](Endpoint from,
                                      std::vector<std::uint8_t> payload) {
    payload.insert(payload.begin(), {'r', 'e', ':'});
    if (auto s = weak_server.lock()) s->send_to(from, payload);
  };
  auto client = inmate1.udp_open(0);
  int replies = 0;
  client->on_datagram = [&](Endpoint, std::vector<std::uint8_t>) {
    ++replies;
  };
  for (int i = 0; i < 3; ++i) {
    client->send_to({kWebAddr, 53}, util::to_bytes("query" + std::to_string(i)));
    loop.run_for(util::milliseconds(300));
  }
  loop.run_for(util::seconds(2));
  EXPECT_EQ(replies, 3);
  expect_golden({0x12d0ce4d8e32325cull, 0xabe68ee3ab16ac12ull,
                 0xf4deb6828944e583ull, 0xf8350723e66c6155ull,
                 0x384b474ab2c46c93ull});
}

TEST_F(GoldenFarm, TcpRewriteRelay) {
  class RewritePolicy : public cs::Policy {
   public:
    RewritePolicy() : Policy("GoldenRewrite") {}
    cs::Decision decide(const cs::FlowInfo&) override {
      return cs::Decision::rewrite("filter");
    }
    std::unique_ptr<cs::RewriteHandler> make_rewrite_handler(
        const cs::FlowInfo&) override {
      auto request_filter = [](svc::HttpRequest request)
          -> std::optional<svc::HttpRequest> {
        request.path = "/cleanup.exe";
        return request;
      };
      auto response_filter = [](svc::HttpResponse) {
        return svc::HttpResponse::make(404, "NOT FOUND", "");
      };
      return std::make_unique<cs::HttpFilterHandler>(request_filter,
                                                     response_filter);
    }
  };
  bind(std::make_shared<RewritePolicy>());
  svc::HttpServer httpd(web, 80, [](const svc::HttpRequest&, Endpoint) {
    return svc::HttpResponse::make(200, "OK", std::string(3000, 'b'));
  });
  std::optional<svc::HttpResponse> response;
  svc::HttpRequest request;
  request.path = "/bot.exe";
  svc::HttpClient::fetch(inmate1, {kWebAddr, 80}, request,
                         [&](std::optional<svc::HttpResponse> rsp) {
                           response = std::move(rsp);
                         });
  loop.run_for(util::seconds(1));
  ASSERT_TRUE(response);
  EXPECT_EQ(response->status, 404);
  // The containment server's SYN-ACK again, on the established REWRITE
  // flow.
  const auto cs_syn_ack = find_frame(
      gateway->mgmt_trace().archive().records(), [](const auto& f) {
        return f.tcp && f.tcp->syn() && f.tcp->has_ack() &&
               f.ip->src == kCsAddr;
      });
  raw_mgmt.transmit(resend(cs_syn_ack));
  loop.run_for(util::seconds(20));
  expect_golden({0xde9dc320aa4053faull, 0xa5649d64969c8523ull,
                 0xf25f5f61e1a7faf5ull, 0xcdd181bf2b48bc9aull,
                 0x8e4024cb99411f92ull});
}

// The splice SYN toward the target waits on ARP; a SYN-ACK injected
// before the reply establishes the flow, so the inmate's next segment
// meets a cold ARP cache on an established flow.
TEST_F(GoldenFarm, ColdArpMissOnUpstreamLeg) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  auto conn = inmate1.connect(kGhostUpstream);
  conn->on_connected = [conn] { conn->send("first"); };
  loop.run_for(util::milliseconds(100));
  const pkt::TcpSegment syn = inmate_syn_to(kGhostUpstream);
  const Endpoint nat{binding1().global_addr, syn.src_port};
  raw_ext.transmit(sim::Frame{tcp_frame(
      kRawMac, gw_upstream_mac, kGhostUpstream, nat,
      pkt::kTcpSyn | pkt::kTcpAck, 5000, syn.seq + 1, "")});
  loop.run_for(util::milliseconds(200));
  conn->send("second");
  loop.run_for(util::milliseconds(100));
  raw_ext.transmit(sim::Frame{tcp_frame(kRawMac, gw_upstream_mac,
                                        kGhostUpstream, nat,
                                        pkt::kTcpAck | pkt::kTcpPsh, 5001,
                                        syn.seq + 1, "reply")});
  loop.run_for(util::milliseconds(200));
  raw_ext.transmit(sim::Frame{arp_reply(
      gw_upstream_mac, kGwUpstream, kGhostUpstream.addr)});
  loop.run_for(util::seconds(3));
  expect_golden({0x8dc432c7a258dd8eull, 0xc17584467c2cf688ull,
                 0xf4deb6828944e583ull, 0x6ea6bdc6e0275945ull,
                 0xc0ce1a41688960e1ull});
}

TEST_F(GoldenFarm, ColdArpMissOnMgmtLeg) {
  class ReflectGhost : public cs::Policy {
   public:
    ReflectGhost() : Policy("ReflectGhost") {}
    cs::Decision decide(const cs::FlowInfo&) override {
      return cs::Decision::reflect(kGhostMgmt);
    }
  };
  bind(std::make_shared<ReflectGhost>());
  const Endpoint dst{kWebAddr, 25};
  auto conn = inmate1.connect(dst);
  conn->on_connected = [conn] { conn->send("HELO"); };
  loop.run_for(util::milliseconds(100));
  const pkt::TcpSegment syn = inmate_syn_to(dst);
  // Management-network targets see the inmate's internal address.
  const Endpoint inmate_ep{binding1().internal_addr, syn.src_port};
  raw_mgmt.transmit(sim::Frame{tcp_frame(
      kRawMac, gw_mgmt_mac, kGhostMgmt, inmate_ep,
      pkt::kTcpSyn | pkt::kTcpAck, 7000, syn.seq + 1, "")});
  loop.run_for(util::milliseconds(200));
  conn->send("MAIL");
  loop.run_for(util::milliseconds(100));
  raw_mgmt.transmit(sim::Frame{tcp_frame(kRawMac, gw_mgmt_mac, kGhostMgmt,
                                         inmate_ep,
                                         pkt::kTcpAck | pkt::kTcpPsh, 7001,
                                         syn.seq + 1, "250 ok")});
  loop.run_for(util::milliseconds(200));
  raw_mgmt.transmit(
      sim::Frame{arp_reply(gw_mgmt_mac, kGwMgmt, kGhostMgmt.addr)});
  loop.run_for(util::seconds(3));
  expect_golden({0xcbf29ce484222325ull, 0x89b0a6f6d3f0018full,
                 0x7b0b8bd9fe5c38b0ull, 0x2afe3aa248ac3428ull,
                 0x8125f0a6dfeeb05bull});
}

TEST_F(GoldenFarm, UnboundInmateDestination) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [this](std::shared_ptr<net::TcpConnection> conn) {
    std::weak_ptr<net::TcpConnection> weak = conn;
    for (int i = 1; i <= 6; ++i) {
      loop.schedule_in(util::milliseconds(300 * i), [weak] {
        if (auto c = weak.lock()) c->send("tick");
      });
    }
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [conn] { conn->send("hi"); };
  loop.run_for(util::seconds(1));
  // The inmate's binding goes away under a live flow: frames toward it
  // have nowhere to go.
  subfarm->inmates().release(16);
  loop.run_for(util::seconds(4));
  expect_golden({0xfe807f1eb2ec9d6cull, 0xe4cb3d3285149828ull,
                 0xf4deb6828944e583ull, 0xafdac9ff81f822c7ull,
                 0xc7c4fcef5b81d90bull});
}

// Trailing Ethernet padding makes a frame non-canonical: the gateway
// re-encodes it once and forwards it like any other established frame.
TEST_F(GoldenFarm, NonCanonicalFramesOnEstablishedFlow) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  listen_echo();
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [conn] { conn->send("ping"); };
  loop.run_for(util::seconds(2));
  auto from_inmate = find_frame(
      gateway->inmate_rx_trace().archive().records(),
      [](const auto& f) { return f.tcp && !f.tcp->payload.empty(); },
      /*last=*/true);
  auto from_web = find_frame(
      gateway->upstream_trace().archive().records(),
      [](const auto& f) {
        return f.tcp && !f.tcp->payload.empty() && f.ip->src == kWebAddr;
      },
      /*last=*/true);
  from_inmate.insert(from_inmate.end(), 6, 0);
  from_web.insert(from_web.end(), 6, 0);
  gateway->inject_inmate_frame(from_inmate);
  raw_ext.transmit(resend(from_web));
  loop.run_for(util::seconds(2));
  expect_golden({0xbf70c27cf3367068ull, 0xe01409539082b326ull,
                 0xf4deb6828944e583ull, 0xed050697fc562f85ull,
                 0xc641360722ae6cc6ull});
}

// One ingress mutation: truncate, pad, flip bits, change the 802.1Q tag
// (strip it, add one, re-number it, or stack a second), or overwrite the
// ethertype.
void mutate_frame(util::Rng& rng, std::vector<std::uint8_t>& frame) {
  const bool tagged = frame.size() >= 16 && frame[12] == 0x81 &&
                      frame[13] == 0x00;
  const std::uint8_t tag[4] = {0x81, 0x00,
                               static_cast<std::uint8_t>(rng.below(16)),
                               static_cast<std::uint8_t>(rng.next())};
  switch (rng.below(5)) {
    case 0:
      frame.resize(rng.below(frame.size() + 1));
      break;
    case 1:
      for (auto n = 1 + rng.below(32); n > 0; --n)
        frame.push_back(static_cast<std::uint8_t>(rng.next()));
      break;
    case 2:
      for (auto n = 1 + rng.below(8); n > 0 && !frame.empty(); --n)
        frame[rng.below(frame.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 3:
      if (frame.size() < 14) break;
      if (tagged && rng.below(3) == 0) {
        frame.erase(frame.begin() + 12, frame.begin() + 16);
      } else if (tagged && rng.below(2) == 0) {
        frame[15] = static_cast<std::uint8_t>(16 + rng.below(4));
      } else {
        frame.insert(frame.begin() + 12, tag, tag + 4);
      }
      break;
    case 4: {
      const std::size_t at = tagged ? 16 : 12;
      if (frame.size() < at + 2) break;
      static constexpr std::uint16_t kTypes[] = {0x0800, 0x0806, 0x86DD,
                                                 0x8100, 0x88CC};
      const std::uint16_t type = kTypes[rng.below(5)];
      frame[at] = static_cast<std::uint8_t>(type >> 8);
      frame[at + 1] = static_cast<std::uint8_t>(type);
      break;
    }
  }
}

// Frames recorded from a live run — an established TCP flow, UDP both
// ways, a denied TCP flow and a denied UDP flow — replayed with one to
// three mutations each into the inmate port, and straight onto the
// upstream and management legs. The run must not crash (run it under the
// asan and ubsan presets), and no inmate frame may leave upstream except
// toward the two destinations the bound policy forwards.
TEST_F(GoldenFarm, MutatedIngressOnEveryLegNeverEscapes) {
  class ForwardWebOnly : public cs::Policy {
   public:
    ForwardWebOnly() : Policy("ForwardWebOnly") {}
    cs::Decision decide(const cs::FlowInfo& flow) override {
      const bool http = flow.proto == pkt::FlowProto::kTcp &&
                        flow.dst() == Endpoint{kWebAddr, 80};
      const bool dns = flow.proto == pkt::FlowProto::kUdp &&
                       flow.dst() == Endpoint{kWebAddr, 53};
      return http || dns ? cs::Decision::forward() : cs::Decision::drop();
    }
  };
  bind(std::make_shared<ForwardWebOnly>());
  listen_echo();
  auto dns = web.udp_open(53);
  std::weak_ptr<net::UdpSocket> weak_dns = dns;
  dns->on_datagram = [weak_dns](Endpoint from,
                                std::vector<std::uint8_t> payload) {
    if (auto s = weak_dns.lock()) s->send_to(from, payload);
  };
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [conn] { conn->send("hello"); };
  auto denied = inmate1.connect({kWebAddr, 25});
  auto client = inmate2.udp_open(0);
  for (int i = 0; i < 2; ++i) {
    client->send_to({kWebAddr, 53}, util::to_bytes("q" + std::to_string(i)));
    client->send_to({kWebAddr, 5353}, util::to_bytes("x"));
    loop.run_for(util::milliseconds(300));
  }
  loop.run_for(util::seconds(2));

  const auto inmate_rx = gateway->inmate_rx_trace().archive().records();
  const auto upstream = gateway->upstream_trace().archive().records();
  const auto mgmt = gateway->mgmt_trace().archive().records();
  ASSERT_FALSE(inmate_rx.empty());
  ASSERT_FALSE(upstream.empty());
  ASSERT_FALSE(mgmt.empty());

  constexpr int kFramesPerLeg = 3000;
  util::Rng rng(0x1A6E55);
  auto pick = [&](const std::vector<pkt::PcapRecord>& records) {
    auto frame = records[rng.below(records.size())].frame;
    for (auto n = 1 + rng.below(3); n > 0; --n) mutate_frame(rng, frame);
    return sim::Frame{std::move(frame)};
  };
  util::TimePoint at = loop.now();
  for (int i = 0; i < kFramesPerLeg; ++i) {
    at = at + util::microseconds(500);
    loop.schedule_at(at, [this, frame = pick(inmate_rx)]() mutable {
      gateway->inject_inmate_frame(std::move(frame.bytes));
    });
    gateway->upstream_port().schedule_bridged(at, pick(upstream));
    gateway->mgmt_port().schedule_bridged(at, pick(mgmt));
  }
  loop.run_for(util::minutes(6));  // Past the flow timeout.

  // Established flows are forwarded without an L4 checksum check, like a
  // hardware router's, so read the ports without one too.
  std::size_t allowed = 0;
  for (auto bytes : upstream_emitted) {
    const auto src = pkt::ipv4_src_of(bytes);
    if (!src || !kExternalNet.contains(*src)) continue;
    const auto view = pkt::FrameView::parse(bytes, pkt::ViewVerify::kNone);
    const bool to_http = view && view->is_tcp() &&
                         view->ip_dst() == kWebAddr && view->dst_port() == 80;
    const bool to_dns = view && view->is_udp() &&
                        view->ip_dst() == kWebAddr && view->dst_port() == 53;
    EXPECT_TRUE(to_http || to_dns)
        << "inmate frame escaped upstream: "
        << pkt::decode_frame(bytes)->summary();
    allowed += to_http || to_dns;
  }
  EXPECT_GT(allowed, 0u);
  // The denied flows of the recorded run did meet the DROP policy.
  const auto* drops = gateway->telemetry().metrics().find_counter(
      "gw.GoldenFarm.verdicts.DROP");
  ASSERT_NE(drops, nullptr);
  EXPECT_GE(drops->value(), 2u);
}

}  // namespace
}  // namespace gq

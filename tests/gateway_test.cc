// Integration tests of the full containment data path: a miniature farm
// (inmate switch + management switch + external "Internet" + gateway +
// containment server) exercising every verdict of Figure 2 end-to-end —
// through real DHCP, real TCP, shim injection/stripping with sequence
// bumping, flow splicing, NAT, nonce-port proxy legs, the safety
// filter, and inbound-flow handling.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
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
#include "packet/frame_view.h"
#include "services/dhcp.h"
#include "services/http.h"
#include "util/bytes.h"

namespace gq {
namespace {

using util::Endpoint;
using util::Ipv4Addr;
using util::Ipv4Net;

constexpr std::uint16_t kCsPort = 6666;
const Ipv4Addr kGwMgmt(10, 3, 0, 1);
const Ipv4Addr kCsAddr(10, 3, 0, 2);
const Ipv4Addr kSinkAddr(10, 3, 0, 3);
const Ipv4Addr kWebAddr(192, 150, 187, 12);
const Ipv4Net kMgmtNet(Ipv4Addr(10, 3, 0, 0), 24);
const Ipv4Net kInternalNet(Ipv4Addr(10, 0, 0, 0), 24);
const Ipv4Net kExternalNet(Ipv4Addr(198, 18, 0, 0), 24);

// A one-subfarm farm with two inmates, a containment server, a catch-all
// TCP+UDP sink, and one external web server.
struct FarmFixture : ::testing::Test {
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
  std::unique_ptr<svc::DhcpClient> dhcp1, dhcp2;
  std::unique_ptr<cs::ContainmentServer> cs;
  std::vector<obs::FarmEvent> events;

  // Sink bookkeeping.
  int sink_tcp_accepts = 0;
  std::string sink_tcp_data;
  int sink_udp_datagrams = 0;

  void SetUp() override {
    gw::GatewayConfig gwc;
    gwc.upstream_addr = Ipv4Addr(203, 0, 113, 1);
    gwc.mgmt_addr = kGwMgmt;
    gwc.mgmt_net = kMgmtNet;
    gateway = std::make_unique<gw::Gateway>(loop, gwc);
    gateway->telemetry().bus().subscribe(
        [this](const obs::FarmEvent& event) { events.push_back(event); });

    gw::SubfarmConfig sfc;
    sfc.name = "TestFarm";
    sfc.vlan_first = 16;
    sfc.vlan_last = 17;  // 18-19 are free for second-subfarm tests.
    sfc.internal_net = kInternalNet;
    sfc.external_net = kExternalNet;
    sfc.containment_server = {kCsAddr, kCsPort};
    subfarm = &gateway->add_subfarm(sfc);

    // Wiring: inmates on access ports, gateway on a trunk.
    inmate_sw.set_access(0, 16);
    inmate_sw.set_access(1, 17);
    inmate_sw.set_trunk_all(5);
    sim::Port::connect(inmate1.nic(), inmate_sw.port(0),
                       util::microseconds(20));
    sim::Port::connect(inmate2.nic(), inmate_sw.port(1),
                       util::microseconds(20));
    sim::Port::connect(gateway->inmate_port(), inmate_sw.port(5),
                       util::microseconds(20));

    mgmt_sw.set_access(0, 2);
    mgmt_sw.set_access(1, 2);
    mgmt_sw.set_access(5, 2);
    sim::Port::connect(cs_host.nic(), mgmt_sw.port(0), util::microseconds(20));
    sim::Port::connect(sink_host.nic(), mgmt_sw.port(1),
                       util::microseconds(20));
    sim::Port::connect(gateway->mgmt_port(), mgmt_sw.port(5),
                       util::microseconds(20));

    ext_sw.set_access(0, 3);
    ext_sw.set_access(5, 3);
    sim::Port::connect(web.nic(), ext_sw.port(0), util::microseconds(100));
    sim::Port::connect(gateway->upstream_port(), ext_sw.port(5),
                       util::microseconds(100));

    cs_host.configure({kCsAddr, kMgmtNet, kGwMgmt, {}});
    sink_host.configure({kSinkAddr, kMgmtNet, kGwMgmt, {}});
    web.configure({kWebAddr, Ipv4Net(Ipv4Addr(), 0), Ipv4Addr(), {}});

    cs = std::make_unique<cs::ContainmentServer>(cs_host, kCsPort, kGwMgmt);

    // Catch-all sink: accepts anything on TCP 9999 / UDP 9999.
    sink_host.listen(9999, [this](std::shared_ptr<net::TcpConnection> conn) {
      ++sink_tcp_accepts;
      conn->on_data = [this](std::span<const std::uint8_t> d) {
        sink_tcp_data.append(reinterpret_cast<const char*>(d.data()),
                             d.size());
      };
    });
    auto udp_sink = sink_host.udp_open(9999);
    udp_sink->on_datagram = [this, udp_sink](util::Endpoint,
                                             std::vector<std::uint8_t>) {
      ++sink_udp_datagrams;
    };

    // Boot both inmates through DHCP.
    dhcp1 = std::make_unique<svc::DhcpClient>(inmate1, nullptr);
    dhcp2 = std::make_unique<svc::DhcpClient>(inmate2, nullptr);
    dhcp1->start();
    dhcp2->start();
    loop.run_for(util::seconds(5));
    ASSERT_TRUE(inmate1.configured());
    ASSERT_TRUE(inmate2.configured());
  }

  // A pending closure can own the last reference to a TCP connection
  // whose destructor reaches its host stack and the loop: destroy those
  // closures while both still exist (EventLoop::drop_pending's contract).
  void TearDown() override { loop.drop_pending(); }

  // Inmate enumerator for honeyfarm policies (outlives any policy that
  // keeps a PolicyEnv copy pointing at it).
  cs::InlinePolicyServices inmate_services;

  cs::PolicyEnv env_with_sink() {
    cs::PolicyEnv env;
    env.services["sink"] = {kSinkAddr, 9999};
    return env;
  }

  void bind(std::shared_ptr<cs::Policy> policy) {
    cs->bind_policy(16, 19, std::move(policy));
  }
};

TEST_F(FarmFixture, DhcpBindsInternalAndGlobalAddresses) {
  const auto* binding = subfarm->inmates().by_vlan(16);
  ASSERT_NE(binding, nullptr);
  EXPECT_TRUE(kInternalNet.contains(binding->internal_addr));
  EXPECT_TRUE(kExternalNet.contains(binding->global_addr));
  EXPECT_EQ(binding->internal_addr, inmate1.addr());
  EXPECT_EQ(inmate1.config().gateway, Ipv4Addr(10, 0, 0, 254));
  // Distinct inmates get distinct addresses.
  const auto* binding2 = subfarm->inmates().by_vlan(17);
  ASSERT_NE(binding2, nullptr);
  EXPECT_NE(binding->internal_addr, binding2->internal_addr);
  EXPECT_NE(binding->global_addr, binding2->global_addr);
}

TEST_F(FarmFixture, DefaultDenyDropsFlow) {
  bind(std::make_shared<cs::Policy>("DefaultDeny"));
  bool web_accepted = false;
  web.listen(80, [&](std::shared_ptr<net::TcpConnection>) {
    web_accepted = true;
  });
  bool reset = false;
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_reset = [&] { reset = true; };
  loop.run_for(util::seconds(10));
  EXPECT_TRUE(reset);
  EXPECT_FALSE(web_accepted);  // Containment held: nothing escaped.
  ASSERT_FALSE(events.empty());
  bool saw_drop = false;
  for (const auto& event : events)
    if (event.kind == obs::FarmEvent::Kind::kFlowVerdict &&
        event.verdict == shim::Verdict::kDrop)
      saw_drop = true;
  EXPECT_TRUE(saw_drop);
}

// A containment server answering in any wire version but v3: the
// gateway cannot parse the reply, keeps waiting, and enforces the
// fail-closed verdict at the flow's deadline.
TEST_F(FarmFixture, NonV3ResponseShimFailsClosedAtDeadline) {
  subfarm->set_fail_closed(shim::Verdict::kDrop, util::seconds(5));
  cs_host.listen(kCsPort, [](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [conn](std::span<const std::uint8_t> data) {
      const auto request = shim::RequestShim::parse(data);
      if (!request) return;
      shim::ResponseShim response;
      response.orig = request->orig;
      response.resp = request->resp;
      response.verdict = shim::Verdict::kForward;
      response.policy_name = "OtherVersion";
      auto bytes = response.encode();
      bytes[7] = 2;
      conn->send(bytes);
    };
  });
  bool web_accepted = false;
  web.listen(80, [&](std::shared_ptr<net::TcpConnection>) {
    web_accepted = true;
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  loop.run_for(util::seconds(15));
  EXPECT_FALSE(web_accepted);
  EXPECT_EQ(subfarm->fail_closed_verdicts(), 1u);
  std::size_t verdicts = 0;
  for (const auto& event : events) {
    if (event.kind != obs::FarmEvent::Kind::kFlowVerdict) continue;
    ++verdicts;
    EXPECT_EQ(event.verdict, shim::Verdict::kDrop);
    EXPECT_EQ(event.policy_name, "FailClosed");
  }
  EXPECT_EQ(verdicts, 1u);
}

// A containment server that completes the handshake but whose acks
// never come back: every CS-to-gateway TCP segment after the SYN-ACK is
// lost. The request shim is retransmitted with a backoff that starts at
// 1 s and doubles to an 8 s cap, i.e. 1, 3, 7, 15 and 23 s after the
// first send, until the 30 s verdict deadline fails the flow closed.
TEST_F(FarmFixture, RequestShimRetransmitsUntilTheVerdictDeadline) {
  // Reroute the CS host's cable through a filter: frames toward the CS
  // pass untouched, frames from it only when they are not TCP or carry
  // SYN (ARP replies and the SYN-ACK).
  sim::Port cs_side{loop, "filter-cs"};
  sim::Port switch_side{loop, "filter-sw"};
  sim::Port::connect(cs_host.nic(), cs_side, util::microseconds(10));
  sim::Port::connect(switch_side, mgmt_sw.port(0), util::microseconds(10));
  switch_side.set_rx(
      [&](sim::Frame frame) { cs_side.transmit(std::move(frame)); });
  cs_side.set_rx([&](sim::Frame frame) {
    const auto decoded = pkt::decode_frame(frame.bytes);
    if (decoded && decoded->tcp && !decoded->tcp->syn()) return;
    switch_side.transmit(std::move(frame));
  });
  bool web_accepted = false;
  web.listen(80, [&](std::shared_ptr<net::TcpConnection>) {
    web_accepted = true;
  });

  auto& metrics = gateway->telemetry().metrics();
  auto counter = [&](const std::string& name) {
    const auto* c = metrics.find_counter("gw.TestFarm." + name);
    return c ? c->value() : 0;
  };
  const util::TimePoint start = loop.now();
  auto conn = inmate1.connect({kWebAddr, 80});
  // shim_retries read half a second either side of each retransmit.
  const std::vector<std::pair<std::int64_t, std::uint64_t>> schedule = {
      {500, 0},    {1500, 1},   {2500, 1},   {3500, 2},
      {6500, 2},   {7500, 3},   {14500, 3},  {15500, 4},
      {22500, 4},  {23500, 5},  {29500, 5}};
  for (const auto& [at_ms, retries] : schedule) {
    loop.run_until(start + util::milliseconds(at_ms));
    EXPECT_EQ(counter("shim_retries"), retries) << "at " << at_ms << " ms";
  }
  EXPECT_EQ(counter("fail_closed"), 0u);
  loop.run_until(start + util::seconds(35));
  EXPECT_EQ(counter("shim_retries"), 5u);
  EXPECT_EQ(counter("fail_closed"), 1u);
  EXPECT_EQ(counter("verdict_timeouts"), 1u);
  EXPECT_FALSE(web_accepted);
  std::vector<util::TimePoint> verdict_times;
  for (const auto& event : events) {
    if (event.kind != obs::FarmEvent::Kind::kFlowVerdict) continue;
    verdict_times.push_back(event.time);
    EXPECT_EQ(event.verdict, shim::Verdict::kDrop);
    EXPECT_EQ(event.policy_name, "FailClosed");
  }
  ASSERT_EQ(verdict_times.size(), 1u);
  EXPECT_GE(verdict_times[0], start + util::seconds(30));
  EXPECT_LT(verdict_times[0], start + util::milliseconds(30500));
  // Unhook the filter before its ports go out of scope.
  loop.drop_pending();
  sim::Port::connect(cs_host.nic(), mgmt_sw.port(0), util::microseconds(20));
}

// The same silent containment server under a 60 s verdict deadline: the
// request shim is retransmitted 1, 3, 7, 15, 23 and 31 s after the
// first send, and once those six retries are spent the next backoff
// expiry, at 39 s, fails the flow closed without waiting for the
// deadline.
TEST_F(FarmFixture, RequestShimRetriesExhaustedFailClosedBeforeTheDeadline) {
  subfarm->set_fail_closed(shim::Verdict::kDrop, util::seconds(60));
  sim::Port cs_side{loop, "filter-cs"};
  sim::Port switch_side{loop, "filter-sw"};
  sim::Port::connect(cs_host.nic(), cs_side, util::microseconds(10));
  sim::Port::connect(switch_side, mgmt_sw.port(0), util::microseconds(10));
  switch_side.set_rx(
      [&](sim::Frame frame) { cs_side.transmit(std::move(frame)); });
  cs_side.set_rx([&](sim::Frame frame) {
    const auto decoded = pkt::decode_frame(frame.bytes);
    if (decoded && decoded->tcp && !decoded->tcp->syn()) return;
    switch_side.transmit(std::move(frame));
  });
  bool web_accepted = false;
  web.listen(80, [&](std::shared_ptr<net::TcpConnection>) {
    web_accepted = true;
  });

  auto& metrics = gateway->telemetry().metrics();
  auto counter = [&](const std::string& name) {
    const auto* c = metrics.find_counter("gw.TestFarm." + name);
    return c ? c->value() : 0;
  };
  const util::TimePoint start = loop.now();
  auto conn = inmate1.connect({kWebAddr, 80});
  loop.run_until(start + util::milliseconds(31500));
  EXPECT_EQ(counter("shim_retries"), 6u);
  EXPECT_EQ(counter("fail_closed"), 0u);
  loop.run_until(start + util::seconds(45));
  EXPECT_EQ(counter("shim_retries"), 6u);
  EXPECT_EQ(counter("fail_closed"), 1u);
  EXPECT_EQ(counter("verdict_timeouts"), 0u);
  EXPECT_FALSE(web_accepted);
  std::vector<util::TimePoint> verdict_times;
  for (const auto& event : events) {
    if (event.kind != obs::FarmEvent::Kind::kFlowVerdict) continue;
    verdict_times.push_back(event.time);
    EXPECT_EQ(event.verdict, shim::Verdict::kDrop);
    EXPECT_EQ(event.policy_name, "FailClosed");
  }
  ASSERT_EQ(verdict_times.size(), 1u);
  EXPECT_GE(verdict_times[0], start + util::seconds(39));
  EXPECT_LT(verdict_times[0], start + util::milliseconds(39500));
  // Unhook the filter before its ports go out of scope.
  loop.drop_pending();
  sim::Port::connect(cs_host.nic(), mgmt_sw.port(0), util::microseconds(20));
}

TEST_F(FarmFixture, ForwardVerdictSplicesAndNats) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  util::Endpoint seen_client;
  svc::HttpServer httpd(web, 80,
                        [&](const svc::HttpRequest&, util::Endpoint client) {
                          seen_client = client;
                          return svc::HttpResponse::make(200, "OK", "hello");
                        });
  std::optional<svc::HttpResponse> response;
  svc::HttpRequest request;
  request.path = "/";
  svc::HttpClient::fetch(inmate1, {kWebAddr, 80}, request,
                         [&](std::optional<svc::HttpResponse> rsp) {
                           response = std::move(rsp);
                         });
  loop.run_for(util::seconds(20));
  ASSERT_TRUE(response);
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "hello");
  // NAT: the web server must see the inmate's *global* address.
  const auto* binding = subfarm->inmates().by_vlan(16);
  EXPECT_EQ(seen_client.addr, binding->global_addr);
}

TEST_F(FarmFixture, ReflectVerdictHitsSinkTransparently) {
  bind(std::make_shared<cs::SinkAllPolicy>(env_with_sink()));
  bool web_accepted = false;
  web.listen(6667, [&](std::shared_ptr<net::TcpConnection>) {
    web_accepted = true;
  });
  bool connected = false;
  auto conn = inmate1.connect({kWebAddr, 6667});  // "IRC C&C" attempt.
  conn->on_connected = [&, conn] {
    connected = true;
    conn->send("NICK spambot\r\n");
  };
  loop.run_for(util::seconds(20));
  EXPECT_TRUE(connected);  // Inmate believes it reached the C&C.
  EXPECT_EQ(conn->remote().addr, kWebAddr);  // Illusion preserved.
  EXPECT_FALSE(web_accepted);                // Nothing escaped.
  EXPECT_EQ(sink_tcp_accepts, 1);
  EXPECT_EQ(sink_tcp_data, "NICK spambot\r\n");
}

TEST_F(FarmFixture, RewriteVerdictFigure5) {
  // The Figure 5 scenario: HTTP REWRITE proxy changes "GET /bot.exe" to
  // "GET /cleanup.exe" on the way out and turns the answer into a 404.
  class Figure5Policy : public cs::Policy {
   public:
    Figure5Policy() : Policy("Fig5Rewrite") {}
    cs::Decision decide(const cs::FlowInfo&) override {
      return cs::Decision::rewrite("C&C filtering");
    }
    std::unique_ptr<cs::RewriteHandler> make_rewrite_handler(
        const cs::FlowInfo&) override {
      auto request_filter = [](svc::HttpRequest request)
          -> std::optional<svc::HttpRequest> {
        if (request.path == "/bot.exe") request.path = "/cleanup.exe";
        return request;
      };
      auto response_filter = [](svc::HttpResponse response) {
        if (response.status == 200)
          return svc::HttpResponse::make(404, "NOT FOUND", "");
        return response;
      };
      return std::make_unique<cs::HttpFilterHandler>(request_filter,
                                                     response_filter);
    }
  };
  bind(std::make_shared<Figure5Policy>());

  std::string path_seen_at_server;
  svc::HttpServer httpd(web, 80,
                        [&](const svc::HttpRequest& request, util::Endpoint) {
                          path_seen_at_server = request.path;
                          return svc::HttpResponse::make(200, "OK", "binary");
                        });
  std::optional<svc::HttpResponse> response;
  svc::HttpRequest request;
  request.path = "/bot.exe";
  svc::HttpClient::fetch(inmate1, {kWebAddr, 80}, request,
                         [&](std::optional<svc::HttpResponse> rsp) {
                           response = std::move(rsp);
                         });
  loop.run_for(util::seconds(30));
  EXPECT_EQ(path_seen_at_server, "/cleanup.exe");  // Outbound rewritten.
  ASSERT_TRUE(response);
  EXPECT_EQ(response->status, 404);  // Inbound rewritten.
}

TEST_F(FarmFixture, RedirectVerdictReachesOtherInmate) {
  // Worm honeyfarm containment: inmate1's "scan" of an external host is
  // redirected to inmate2.
  inmate_services.list_inmates_fn = [this] {
    cs::PolicyServices::InmateList inmates;
    for (const auto& [vlan, binding] : subfarm->inmates().bindings())
      inmates.emplace_back(vlan, binding.internal_addr);
    return inmates;
  };
  cs::PolicyEnv env(inmate_services);
  bind(std::make_shared<cs::WormFarmPolicy>(env));

  std::string exploit_at_victim;
  inmate2.listen(445, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      exploit_at_victim.append(reinterpret_cast<const char*>(d.data()),
                               d.size());
    };
  });
  auto conn = inmate1.connect({Ipv4Addr(55, 66, 77, 88), 445});
  conn->on_connected = [conn] { conn->send("EXPLOIT-BYTES"); };
  loop.run_for(util::seconds(20));
  EXPECT_EQ(exploit_at_victim, "EXPLOIT-BYTES");
  EXPECT_EQ(conn->remote().addr, Ipv4Addr(55, 66, 77, 88));
}

TEST_F(FarmFixture, LimitVerdictThrottlesThroughput) {
  class LimitPolicy : public cs::Policy {
   public:
    LimitPolicy() : Policy("Limit4k") {}
    cs::Decision decide(const cs::FlowInfo&) override {
      return cs::Decision::limit(4096);
    }
  };
  bind(std::make_shared<LimitPolicy>());

  std::string received;
  util::TimePoint done{};
  web.listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
      done = loop.now();
    };
  });
  const std::string blob(60'000, 'L');
  const auto start = loop.now();
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::minutes(5));
  EXPECT_EQ(received.size(), blob.size());  // Delivered, eventually.
  // 60 kB at 4 kB/s (burst 8 kB) needs > 10 simulated seconds; an
  // unthrottled transfer completes in well under one.
  EXPECT_GT((done - start).seconds_f(), 10.0);
}

TEST_F(FarmFixture, CustomLimitRateSurvivesTypedShimRoundTrip) {
  // Regression for the typed verdict-parameter block: a non-default
  // LIMIT rate must reach the gateway via the shim's typed field (there
  // is no textual "rate=" channel any more) and drive the token bucket.
  class SlowLimitPolicy : public cs::Policy {
   public:
    SlowLimitPolicy() : Policy("Limit2k") {}
    cs::Decision decide(const cs::FlowInfo&) override {
      return cs::Decision::limit(2048);
    }
  };
  bind(std::make_shared<SlowLimitPolicy>());

  std::string received;
  util::TimePoint done{};
  web.listen(80, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
      done = loop.now();
    };
  });
  const std::string blob(30'000, 'L');
  const auto start = loop.now();
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::minutes(5));
  EXPECT_EQ(received.size(), blob.size());
  // 30 kB at 2 kB/s (burst 4 kB) needs > 12 simulated seconds; at the
  // 8 kB/s default fallback rate it would finish in under 4.
  EXPECT_GT((done - start).seconds_f(), 10.0);
  // The flow event stream carries the typed parameter, not an encoded
  // annotation.
  bool saw_limit = false;
  for (const auto& event : events) {
    if (event.kind == obs::FarmEvent::Kind::kFlowVerdict &&
        event.verdict == shim::Verdict::kLimit) {
      saw_limit = true;
      ASSERT_TRUE(event.limit_bytes_per_sec.has_value());
      EXPECT_EQ(*event.limit_bytes_per_sec, 2048);
    }
  }
  EXPECT_TRUE(saw_limit);
}

TEST_F(FarmFixture, UdpForwardAndReflect) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  // External UDP echo.
  auto echo = web.udp_open(53);
  echo->on_datagram = [echo](util::Endpoint from,
                             std::vector<std::uint8_t> data) {
    echo->send_to(from, data);
  };
  auto client = inmate1.udp_open(0);
  std::string answer;
  client->on_datagram = [&](util::Endpoint from,
                            std::vector<std::uint8_t> data) {
    answer.assign(data.begin(), data.end());
    EXPECT_EQ(from.addr, kWebAddr);  // NAT illusion on the return path.
  };
  client->send_to({kWebAddr, 53}, util::to_bytes("query"));
  loop.run_for(util::seconds(10));
  EXPECT_EQ(answer, "query");
}

TEST_F(FarmFixture, UdpReflectLandsInSink) {
  bind(std::make_shared<cs::SinkAllPolicy>(env_with_sink()));
  auto client = inmate1.udp_open(0);
  client->send_to({Ipv4Addr(8, 8, 8, 8), 53}, util::to_bytes("exfil"));
  client->send_to({Ipv4Addr(8, 8, 4, 4), 53}, util::to_bytes("exfil"));
  loop.run_for(util::seconds(10));
  EXPECT_EQ(sink_udp_datagrams, 2);
}

TEST_F(FarmFixture, UdpDropByDefaultDeny) {
  bind(std::make_shared<cs::Policy>("DefaultDeny"));
  bool web_got_datagram = false;
  auto server = web.udp_open(53);
  server->on_datagram = [&](util::Endpoint, std::vector<std::uint8_t>) {
    web_got_datagram = true;
  };
  auto client = inmate1.udp_open(0);
  client->send_to({kWebAddr, 53}, util::to_bytes("probe"));
  loop.run_for(util::seconds(10));
  EXPECT_FALSE(web_got_datagram);
}

// A fail-closed verdict is no CS answer: it must not pass the deadline
// off as a shim round trip, for UDP just as for TCP.
TEST_F(FarmFixture, UdpFailClosedRecordsNoShimRtt) {
  // inmate2 (VLAN 17) is homed on a cluster member that never answers.
  subfarm->add_containment_server({Ipv4Addr(10, 3, 0, 9), kCsPort});
  subfarm->set_fail_closed(shim::Verdict::kDrop, util::seconds(5));
  auto client = inmate2.udp_open(0);
  client->send_to({kWebAddr, 53}, util::to_bytes("probe"));
  loop.run_for(util::seconds(10));
  EXPECT_EQ(subfarm->fail_closed_verdicts(), 1u);
  const auto* rtt =
      gateway->telemetry().metrics().find_histogram("gw.TestFarm.shim_rtt_us");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->count(), 0u);
}

// Port 80 compiles to an in-gateway FORWARD; every other port falls
// back to the shim path, where port 81's verdict is cacheable.
class VerdictSourcePolicy : public cs::Policy {
 public:
  VerdictSourcePolicy() : cs::Policy("VerdictSource") {}

  cs::Decision decide(const cs::FlowInfo& info) override {
    if (info.dst().port == 81)
      return cs::Decision::forward().cached(shim::CacheScope::kDstEndpoint);
    return cs::Decision::forward();
  }

  std::optional<std::vector<shim::TableRule>> compile() const override {
    shim::TableRule web;
    web.port_first = web.port_last = 80;
    web.action = shim::TableAction::kForward;
    shim::TableRule rest;
    rest.action = shim::TableAction::kFallback;
    return std::vector<shim::TableRule>{web, rest};
  }
};

// Every verdict lands in the combined decision-latency histogram and in
// exactly one per-source slice: table, cache, or the shim path (which
// includes fail-closed), for TCP and UDP alike.
TEST_F(FarmFixture, DecisionLatencySplitsByVerdictSource) {
  // inmate2 (VLAN 17) is homed on a dead cluster member: its shim-path
  // flows fail closed.
  subfarm->add_containment_server({Ipv4Addr(10, 3, 0, 9), kCsPort});
  subfarm->set_fail_closed(shim::Verdict::kDrop, util::seconds(5));
  bind(std::make_shared<VerdictSourcePolicy>());
  loop.run_for(util::seconds(1));  // Deliver the compiled table.

  const auto& metrics = gateway->telemetry().metrics();
  auto count = [&](const char* name) {
    const auto* hist =
        metrics.find_histogram(std::string("gw.TestFarm.") + name);
    return hist ? hist->count() : 0u;
  };
  using Counts = std::array<std::uint64_t, 4>;
  auto snapshot = [&] {
    return Counts{count("decision_latency_us"),
                  count("decision_latency_table_us"),
                  count("decision_latency_cached_us"),
                  count("decision_latency_uncached_us")};
  };
  enum Slice { kTable = 1, kCached = 2, kUncached = 3 };
  std::vector<std::shared_ptr<net::TcpConnection>> conns;
  std::vector<std::shared_ptr<net::UdpSocket>> sockets;
  auto expect_one = [&](bool tcp, net::HostStack& inmate, std::uint16_t port,
                        Slice slice, const char* what) {
    SCOPED_TRACE(std::string(tcp ? "tcp " : "udp ") + what);
    const Counts before = snapshot();
    if (tcp) {
      conns.push_back(inmate.connect({kWebAddr, port}));
    } else {
      sockets.push_back(inmate.udp_open(0));
      sockets.back()->send_to({kWebAddr, port}, util::to_bytes("q"));
    }
    loop.run_for(util::seconds(10));
    const Counts after = snapshot();
    Counts expected{1, 0, 0, 0};
    expected[slice] = 1;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(after[i] - before[i], expected[i]) << "histogram " << i;
  };
  for (const bool tcp : {true, false}) {
    expect_one(tcp, inmate1, 80, kTable, "table");
    expect_one(tcp, inmate1, 81, kUncached, "shim, cacheable");
    expect_one(tcp, inmate1, 81, kCached, "cache");
    expect_one(tcp, inmate1, 82, kUncached, "shim");
    expect_one(tcp, inmate2, 82, kUncached, "fail-closed");
  }
  EXPECT_EQ(subfarm->fail_closed_verdicts(), 2u);
  EXPECT_EQ(subfarm->table_hits(), 2u);
  EXPECT_EQ(subfarm->cache_hits(), 2u);
  const Counts total = snapshot();
  EXPECT_EQ(total[0], 10u);
  EXPECT_EQ(total[0], total[kTable] + total[kCached] + total[kUncached]);
}

TEST_F(FarmFixture, SafetyFilterCapsConnectionRate) {
  gw::SubfarmConfig tight = subfarm->config();
  // Rebuild with a tighter filter by making a second subfarm on other
  // VLANs is heavy; instead verify the counter via many rapid flows
  // against the default threshold using a tiny custom threshold subfarm.
  // Simpler: hammer > kMaxConnsPerDest (500) flows at one destination.
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [](std::shared_ptr<net::TcpConnection>) {});
  for (int i = 0; i < 600; ++i) {
    auto conn = inmate1.connect({kWebAddr, 80});
    conn->on_connected = [conn] { conn->close(); };
  }
  loop.run_for(util::seconds(30));
  EXPECT_GT(subfarm->safety().rejected(), 0u);
}

TEST_F(FarmFixture, InboundDropModeBlocksOutsideInitiated) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  bool inmate_reached = false;
  inmate1.listen(8080, [&](std::shared_ptr<net::TcpConnection>) {
    inmate_reached = true;
  });
  const auto* binding = subfarm->inmates().by_vlan(16);
  auto conn = web.connect({binding->global_addr, 8080});
  loop.run_for(util::seconds(10));
  EXPECT_FALSE(inmate_reached);  // Home-NAT emulation drops it.
}

TEST_F(FarmFixture, PcapTracesRecorded) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [conn](std::span<const std::uint8_t>) {
      conn->send("ok");
    };
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [conn] { conn->send("x"); };
  loop.run_for(util::seconds(10));
  EXPECT_GT(subfarm->trace().packet_count(), 5u);
  EXPECT_GT(gateway->upstream_trace().packet_count(), 5u);
}

// The upstream trace archive must capture every frame the gateway emits
// upstream exactly once — forwarded and synthesised frames alike, on
// both routes an established frame takes into the view forwarder:
// straight through FrameView (FastPath), or, for a non-canonical frame,
// through the one decode → encode that makes it canonical first
// (DecodedPath). The oracle is the upstream tap on transmit_upstream,
// the single choke point all upstream emissions funnel through.
struct UpstreamArchiveFixture : FarmFixture,
                                ::testing::WithParamInterface<bool> {
  int padded_frames = 0;

  // Trailing Ethernet padding on every tagged IPv4/TCP frame from the
  // inmates makes it non-canonical.
  void pad_inmate_tcp_frames() {
    gateway->inmate_port().set_rx([this](sim::Frame frame) {
      auto& bytes = frame.bytes;
      if (bytes.size() > 27 && bytes[16] == 0x08 && bytes[17] == 0x00 &&
          bytes[27] == 6) {
        bytes.insert(bytes.end(), 6, 0);
        ++padded_frames;
      }
      gateway->inject_inmate_frame(std::move(bytes));
    });
  }
};

TEST_P(UpstreamArchiveFixture, EveryUpstreamEmissionArchivedExactlyOnce) {
  const bool canonical = GetParam();
  if (!canonical) pad_inmate_tcp_frames();
  std::vector<std::vector<std::uint8_t>> emitted;
  gateway->set_upstream_tap(
      [&](util::TimePoint, const std::vector<std::uint8_t>& bytes) {
        emitted.push_back(bytes);
      });
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [](std::shared_ptr<net::TcpConnection> conn) {
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) c->send("ok");
    };
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  // The first request rides flow setup; the second, sent once the reply
  // is in, and the FIN ride the established flow.
  std::string replies;
  conn->on_connected = [conn] { conn->send("x"); };
  conn->on_data = [conn, &replies](std::span<const std::uint8_t> data) {
    replies.append(data.begin(), data.end());
    if (replies == "ok") conn->send("y");
    if (replies == "okok") conn->close();
  };
  loop.run_for(util::seconds(20));

  EXPECT_EQ(replies, "okok");
  ASSERT_GT(emitted.size(), 3u);
  std::map<std::vector<std::uint8_t>, int> emitted_count;
  for (const auto& frame : emitted) ++emitted_count[frame];
  std::map<std::vector<std::uint8_t>, int> archived_count;
  for (const auto& record : gateway->upstream_trace().archive().records())
    ++archived_count[record.frame];
  // The archive also holds upstream *ingress* (web replies, captured by
  // on_upstream_frame), so compare only the emitted frames: each must
  // appear exactly as many times as it was transmitted — no drops, no
  // duplicates.
  for (const auto& [frame, count] : emitted_count)
    EXPECT_EQ(archived_count[frame], count)
        << "frame of " << frame.size() << " bytes archived "
        << archived_count[frame] << "x, emitted " << count << "x";

  if (canonical) {
    EXPECT_EQ(padded_frames, 0);
  } else {
    EXPECT_GT(padded_frames, 3);
  }
  // Whichever route it took, every TCP frame leaves upstream canonical.
  for (auto frame : emitted) {
    if (frame.size() > 23 && frame[12] == 0x08 && frame[13] == 0x00 &&
        frame[23] == 6) {
      EXPECT_TRUE(pkt::FrameView::parse(frame).has_value())
          << "non-canonical TCP frame of " << frame.size() << " bytes";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, UpstreamArchiveFixture,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "FastPath" : "DecodedPath";
                         });

// Inbound-forward mode needs its own fixture flavour.
struct InboundFarmFixture : FarmFixture {
  void SetUp() override {
    FarmFixture::SetUp();
    // Rebuild is unnecessary: flip the config through a fresh subfarm is
    // complex, so this fixture is configured via the dedicated test.
  }
};

TEST_F(FarmFixture, InboundForwardModeReachesInmate) {
  // Create a second subfarm in forward mode on VLANs 18-19 and move an
  // inmate-like host onto it.
  gw::SubfarmConfig sfc;
  sfc.name = "StormFarm";
  sfc.vlan_first = 18;
  sfc.vlan_last = 19;
  sfc.internal_net = Ipv4Net(Ipv4Addr(10, 1, 0, 0), 24);
  sfc.external_net = Ipv4Net(Ipv4Addr(198, 19, 0, 0), 24);
  sfc.containment_server = {kCsAddr, kCsPort};
  sfc.inbound_mode = gw::InboundMode::kForward;
  auto& storm_subfarm = gateway->add_subfarm(sfc);

  net::HostStack proxy_bot(loop, "proxybot", util::MacAddr::local(0x203), 23);
  inmate_sw.set_access(2, 18);
  sim::Port::connect(proxy_bot.nic(), inmate_sw.port(2),
                     util::microseconds(20));
  svc::DhcpClient dhcp(proxy_bot, nullptr);
  dhcp.start();
  loop.run_for(util::seconds(5));
  ASSERT_TRUE(proxy_bot.configured());

  std::string relayed;
  proxy_bot.listen(8080, [&](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [&, conn](std::span<const std::uint8_t> d) {
      relayed.append(reinterpret_cast<const char*>(d.data()), d.size());
      conn->send("ACK-FROM-BOT");
    };
  });

  const auto* binding = storm_subfarm.inmates().by_vlan(18);
  ASSERT_NE(binding, nullptr);
  std::string reply;
  auto conn = web.connect({binding->global_addr, 8080});
  conn->on_connected = [conn] { conn->send("C&C-JOB"); };
  conn->on_data = [&](std::span<const std::uint8_t> d) {
    reply.append(reinterpret_cast<const char*>(d.data()), d.size());
  };
  loop.run_for(util::seconds(10));
  EXPECT_EQ(relayed, "C&C-JOB");
  EXPECT_EQ(reply, "ACK-FROM-BOT");
}

// Router GC timing, one case per site that can bring a flow's close
// forward: creation (idle past kFlowTimeout), a FIN from either side
// completing the pair (2 s), a FIN replayed onto a spliced target leg
// (2 s) and a DROP verdict (30 s). The flow must close on the first
// sweep after its rule comes due and survive every sweep before it.
// Sweeps run every 5 s from the router's creation at t = 0. Each case
// starts at 11 s and falls quiet within a second, so the rule comes due
// inside [11 s + linger, 12 s + linger], a window no sweep splits.
struct GcTimingFixture : FarmFixture {
  static constexpr util::TimePoint kStart{util::seconds(11).usec};

  static util::TimePoint first_sweep_after(util::TimePoint t) {
    const std::int64_t period = util::seconds(5).usec;
    return {(t.usec / period + 1) * period};
  }

  void SetUp() override {
    FarmFixture::SetUp();
    loop.run_until(kStart);
    ASSERT_EQ(subfarm->flows_active(), 0u);
  }

  // One flow per linger, each started at kStart. Runs to just before
  // each expected sweep (that flow is still open), then to the sweep
  // itself (it closed at exactly that sweep).
  void expect_closed_by_sweeps(std::vector<util::Duration> lingers) {
    std::sort(lingers.begin(), lingers.end());
    loop.run_until(kStart + util::seconds(1));
    ASSERT_EQ(subfarm->flows_active(), lingers.size());
    std::vector<util::TimePoint> sweeps;
    for (const auto linger : lingers) {
      const auto sweep = first_sweep_after(kStart + linger);
      ASSERT_EQ(sweep,
                first_sweep_after(kStart + util::seconds(1) + linger));
      const auto open = lingers.size() - sweeps.size();
      loop.run_until(sweep + util::microseconds(-1));
      EXPECT_EQ(subfarm->flows_active(), open) << "closed a sweep early";
      loop.run_until(sweep);
      EXPECT_EQ(subfarm->flows_active(), open - 1) << "missed its sweep";
      sweeps.push_back(sweep);
    }
    std::vector<util::TimePoint> closes;
    for (const auto& event : events)
      if (event.kind == obs::FarmEvent::Kind::kFlowClose)
        closes.push_back(event.time);
    EXPECT_EQ(closes, sweeps);
  }
  void expect_closed_by_sweep(util::Duration linger) {
    expect_closed_by_sweeps({linger});
  }
};

TEST_F(GcTimingFixture, IdleFlowClosesPastFlowTimeout) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [](std::shared_ptr<net::TcpConnection>) {});
  auto conn = inmate1.connect({kWebAddr, 80});
  expect_closed_by_sweep(gw::kFlowTimeout);
  EXPECT_EQ(conn->state(), net::TcpState::kEstablished);
}

// A sweep that walks rebuilds the bound from the flows it keeps: the
// DROP flow's sweep keeps the idle flow, which must still close on time.
TEST_F(GcTimingFixture, WalkingSweepRebuildsTheBoundFromSurvivors) {
  cs->bind_policy(16, 16, std::make_shared<cs::ForwardAllPolicy>());
  cs->bind_policy(17, 17, std::make_shared<cs::Policy>("DefaultDeny"));
  web.listen(80, [](std::shared_ptr<net::TcpConnection>) {});
  auto idle = inmate1.connect({kWebAddr, 80});
  auto dropped = inmate2.connect({kWebAddr, 80});
  expect_closed_by_sweeps(
      {util::seconds(30), gw::kFlowTimeout});
}

// A spliced flow that exchanges a request and a reply, then closes from
// one side and then the other: the second FIN completes the pair. The
// callbacks hold raw pointers: each stack keeps its connection alive
// while one can fire, and a self-owning callback would leak it.
class GcFinFixture : public GcTimingFixture,
                     public ::testing::WithParamInterface<bool> {};

TEST_P(GcFinFixture, FinnedFlowClosesTwoSecondsAfterBothFins) {
  const bool inmate_first = GetParam();
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [inmate_first](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [c = conn.get(), inmate_first](
                        std::span<const std::uint8_t>) {
      c->send("y");
      if (!inmate_first) c->close();
    };
    conn->on_remote_close = [c = conn.get()] { c->close(); };
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [c = conn.get()] { c->send("x"); };
  conn->on_data = [c = conn.get(), inmate_first](
                      std::span<const std::uint8_t>) {
    if (inmate_first) c->close();
  };
  conn->on_remote_close = [c = conn.get()] { c->close(); };
  expect_closed_by_sweep(util::seconds(2));
  EXPECT_EQ(conn->state(), net::TcpState::kClosed);
}

INSTANTIATE_TEST_SUITE_P(WhoFinsFirst, GcFinFixture,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return info.param ? "InmateFirst" : "ServerFirst";
                         });

// The inmate closes before its verdict arrives, so the router replays
// its FIN onto the spliced target leg once the replayed byte is acked.
// The target closes as soon as that byte lands, so the replayed FIN is
// the one that completes the pair. The inmate goes silent on the
// target's FIN: a retransmission of its own FIN would complete the pair
// first, and its RST for the target's last ACK would close the flow.
TEST_F(GcTimingFixture, ReplayedFinClosesTwoSecondsAfterBothFins) {
  bind(std::make_shared<cs::ForwardAllPolicy>());
  web.listen(80, [](std::shared_ptr<net::TcpConnection> conn) {
    conn->on_data = [c = conn.get()](std::span<const std::uint8_t>) {
      c->close();
    };
  });
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_connected = [c = conn.get()] {
    c->send("x");
    c->close();
  };
  conn->on_remote_close = [this] {
    loop.schedule_in(util::Duration{}, [this] { inmate1.deconfigure(); });
  };
  expect_closed_by_sweep(util::seconds(2));
}

TEST_F(GcTimingFixture, DroppedFlowClosesThirtySecondsAfterItsVerdict) {
  bind(std::make_shared<cs::Policy>("DefaultDeny"));
  bool reset = false;
  auto conn = inmate1.connect({kWebAddr, 80});
  conn->on_reset = [&] { reset = true; };
  expect_closed_by_sweep(util::seconds(30));
  EXPECT_TRUE(reset);
}

// Verdict sweep: every endpoint verdict produces a report event with the
// right verdict and policy name.
class VerdictEventSweep
    : public FarmFixture,
      public ::testing::WithParamInterface<shim::Verdict> {};

TEST_P(VerdictEventSweep, EventCarriesVerdict) {
  const shim::Verdict verdict = GetParam();
  class OnePolicy : public cs::Policy {
   public:
    OnePolicy(shim::Verdict v, util::Endpoint sink)
        : Policy("OnePolicy"), verdict_(v), sink_(sink) {}
    cs::Decision decide(const cs::FlowInfo&) override {
      switch (verdict_) {
        case shim::Verdict::kForward: return cs::Decision::forward();
        case shim::Verdict::kLimit: return cs::Decision::limit(100000);
        case shim::Verdict::kDrop: return cs::Decision::drop();
        case shim::Verdict::kRedirect:
          return cs::Decision::redirect(sink_);
        case shim::Verdict::kReflect: return cs::Decision::reflect(sink_);
        case shim::Verdict::kRewrite: return cs::Decision::rewrite();
      }
      return cs::Decision::drop();
    }
    std::unique_ptr<cs::RewriteHandler> make_rewrite_handler(
        const cs::FlowInfo&) override {
      return std::make_unique<cs::PassthroughHandler>();
    }

   private:
    shim::Verdict verdict_;
    util::Endpoint sink_;
  };
  bind(std::make_shared<OnePolicy>(verdict,
                                   util::Endpoint{kSinkAddr, 9999}));
  web.listen(80, [](std::shared_ptr<net::TcpConnection>) {});
  auto conn = inmate1.connect({kWebAddr, 80});
  loop.run_for(util::seconds(15));
  bool seen = false;
  for (const auto& event : events) {
    if (event.kind == obs::FarmEvent::Kind::kFlowVerdict &&
        event.verdict == verdict && event.policy_name == "OnePolicy")
      seen = true;
  }
  EXPECT_TRUE(seen) << shim::verdict_name(verdict);
}

INSTANTIATE_TEST_SUITE_P(AllVerdicts, VerdictEventSweep,
                         ::testing::Values(shim::Verdict::kForward,
                                           shim::Verdict::kLimit,
                                           shim::Verdict::kDrop,
                                           shim::Verdict::kRedirect,
                                           shim::Verdict::kReflect,
                                           shim::Verdict::kRewrite));

}  // namespace
}  // namespace gq

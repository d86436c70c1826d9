// Unit tests for the containment module: trigger grammar and engine,
// the Figure 6 configuration format, the sample library, the policy
// registry, the decision logic of the built-in family policies, and the
// containment server's overload refusal on the wire.
#include <gtest/gtest.h>

#include "containment/config.h"
#include "containment/policies.h"
#include "containment/policy.h"
#include "containment/samples.h"
#include "containment/server.h"
#include "containment/trigger.h"
#include "net/stack.h"
#include "netsim/event_loop.h"
#include "util/strings.h"

namespace gq::cs {
namespace {

using util::Endpoint;
using util::Ipv4Addr;

// --- FlowPattern / Trigger grammar -------------------------------------

TEST(FlowPattern, ParseAndMatch) {
  auto pattern = FlowPattern::parse("*:25/tcp");
  ASSERT_TRUE(pattern);
  EXPECT_TRUE(pattern->matches({Ipv4Addr(1, 2, 3, 4), 25},
                               pkt::FlowProto::kTcp));
  EXPECT_FALSE(pattern->matches({Ipv4Addr(1, 2, 3, 4), 80},
                                pkt::FlowProto::kTcp));
  EXPECT_FALSE(pattern->matches({Ipv4Addr(1, 2, 3, 4), 25},
                                pkt::FlowProto::kUdp));
}

TEST(FlowPattern, AddressGlobAndWildcards) {
  auto pattern = FlowPattern::parse("10.3.*:*/*");
  ASSERT_TRUE(pattern);
  EXPECT_TRUE(pattern->matches({Ipv4Addr(10, 3, 1, 4), 9999},
                               pkt::FlowProto::kUdp));
  EXPECT_FALSE(pattern->matches({Ipv4Addr(10, 4, 1, 4), 9999},
                                pkt::FlowProto::kUdp));
}

TEST(FlowPattern, RejectsMalformed) {
  EXPECT_FALSE(FlowPattern::parse(""));
  EXPECT_FALSE(FlowPattern::parse("no-colon/tcp"));
  EXPECT_FALSE(FlowPattern::parse("*:25"));
  EXPECT_FALSE(FlowPattern::parse("*:99999/tcp"));
  EXPECT_FALSE(FlowPattern::parse("*:25/icmp"));
}

TEST(Trigger, ParsesPaperSyntax) {
  auto trigger = Trigger::parse("*:25/tcp / 30min < 1 -> revert");
  ASSERT_TRUE(trigger);
  EXPECT_EQ(trigger->window, util::minutes(30));
  EXPECT_EQ(trigger->cmp, Comparison::kLess);
  EXPECT_EQ(trigger->threshold, 1);
  EXPECT_EQ(trigger->action, LifecycleAction::kRevert);
  EXPECT_EQ(trigger->pattern.port, 25);
}

TEST(Trigger, ParsesVariants) {
  EXPECT_TRUE(Trigger::parse("1.2.3.4:80/udp / 5s >= 100 -> terminate"));
  EXPECT_TRUE(Trigger::parse("*:*/* / 2h > 10 -> reboot"));
  EXPECT_FALSE(Trigger::parse("*:25/tcp 30min < 1 -> revert"));  // No sep.
  EXPECT_FALSE(Trigger::parse("*:25/tcp / 30min < 1 -> explode"));
  EXPECT_FALSE(Trigger::parse("*:25/tcp / 30parsecs < 1 -> revert"));
}

TEST(TriggerEngine, AbsenceTriggerFiresAfterQuietWindow) {
  TriggerEngine engine;
  engine.add(16, 19, *Trigger::parse("*:25/tcp / 30min < 1 -> revert"));
  util::TimePoint t{};
  engine.inmate_started(17, t);

  // Activity within every window: no firing.
  for (int i = 1; i <= 5; ++i) {
    engine.observe_flow(17, {Ipv4Addr(1, 1, 1, 1), 25}, pkt::FlowProto::kTcp,
                        t + util::minutes(10 * i));
  }
  EXPECT_TRUE(engine.evaluate(t + util::minutes(55)).empty());

  // Then one hour of silence: the trigger fires exactly once.
  auto firings = engine.evaluate(t + util::minutes(55) + util::minutes(31));
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0].vlan, 17);
  EXPECT_EQ(firings[0].action, LifecycleAction::kRevert);
  EXPECT_TRUE(engine.evaluate(t + util::hours(3)).empty());  // Disarmed.
}

TEST(TriggerEngine, NotBeforeFirstFullWindow) {
  TriggerEngine engine;
  engine.add(5, 5, *Trigger::parse("*:25/tcp / 30min < 1 -> revert"));
  util::TimePoint t{};
  engine.inmate_started(5, t);
  // 20 minutes in, no activity — but the first window hasn't elapsed.
  EXPECT_TRUE(engine.evaluate(t + util::minutes(20)).empty());
  // 31 minutes in with no activity: fires.
  EXPECT_EQ(engine.evaluate(t + util::minutes(31)).size(), 1u);
}

TEST(TriggerEngine, RearmsOnRestart) {
  TriggerEngine engine;
  engine.add(5, 5, *Trigger::parse("*:25/tcp / 10min < 1 -> revert"));
  util::TimePoint t{};
  engine.inmate_started(5, t);
  EXPECT_EQ(engine.evaluate(t + util::minutes(11)).size(), 1u);
  engine.inmate_started(5, t + util::minutes(12));
  EXPECT_TRUE(engine.evaluate(t + util::minutes(13)).empty());
  EXPECT_EQ(engine.evaluate(t + util::minutes(23)).size(), 1u);
}

TEST(TriggerEngine, RateTriggerFires) {
  // "terminate an inmate sending a recipient too many connections/min".
  TriggerEngine engine;
  engine.add(5, 5, *Trigger::parse("9.9.9.9:25/tcp / 1min > 50 -> terminate"));
  util::TimePoint t{};
  engine.inmate_started(5, t);
  for (int i = 0; i < 60; ++i) {
    engine.observe_flow(5, {Ipv4Addr(9, 9, 9, 9), 25}, pkt::FlowProto::kTcp,
                        t + util::minutes(2) + util::seconds(i));
  }
  auto firings = engine.evaluate(t + util::minutes(3));
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0].action, LifecycleAction::kTerminate);
}

TEST(TriggerEngine, VlanScoping) {
  TriggerEngine engine;
  engine.add(16, 17, *Trigger::parse("*:25/tcp / 10min < 1 -> revert"));
  util::TimePoint t{};
  engine.inmate_started(18, t);  // Outside the range: never tracked.
  EXPECT_TRUE(engine.evaluate(t + util::hours(1)).empty());
}

// --- ContainmentConfig --------------------------------------------------

constexpr const char* kFigure6 = R"(
[VLAN 16-17]
Decider = Rustock
Infection = rustock.100921.*.exe

[VLAN 18-19]
Decider = Grum
Infection = grum.100818.*.exe

[VLAN 16-19]
Trigger = *:25/tcp / 30min < 1 -> revert

[Autoinfect]
Address = 10.9.8.7
Port = 6543

[BannerSmtpSink]
Address = 10.3.1.4
Port = 2526
)";

TEST(ContainmentConfig, ParsesFigure6) {
  auto config = ContainmentConfig::parse(kFigure6);
  ASSERT_EQ(config.bindings.size(), 2u);
  EXPECT_EQ(config.bindings[0].range.first, 16);
  EXPECT_EQ(config.bindings[0].range.last, 17);
  EXPECT_EQ(config.bindings[0].decider, "Rustock");
  EXPECT_EQ(config.bindings[0].infection_glob, "rustock.100921.*.exe");
  EXPECT_EQ(config.bindings[1].decider, "Grum");

  ASSERT_EQ(config.triggers.size(), 1u);
  EXPECT_EQ(config.triggers[0].range.first, 16);
  EXPECT_EQ(config.triggers[0].range.last, 19);
  EXPECT_EQ(config.triggers[0].trigger.action, LifecycleAction::kRevert);

  ASSERT_EQ(config.services.size(), 2u);
  EXPECT_EQ(config.services.at("autoinfect").str(), "10.9.8.7:6543");
  EXPECT_EQ(config.services.at("bannersmtpsink").port, 2526);

  ASSERT_TRUE(config.binding_for(17));
  EXPECT_EQ(config.binding_for(17)->decider, "Rustock");
  ASSERT_TRUE(config.binding_for(19));
  EXPECT_EQ(config.binding_for(19)->decider, "Grum");
  EXPECT_FALSE(config.binding_for(20));
}

TEST(ContainmentConfig, SingleVlanSection) {
  auto config = ContainmentConfig::parse("[VLAN 7]\nDecider = Storm\n");
  ASSERT_EQ(config.bindings.size(), 1u);
  EXPECT_EQ(config.bindings[0].range.first, 7);
  EXPECT_EQ(config.bindings[0].range.last, 7);
}

TEST(ContainmentConfig, MalformedTriggerThrows) {
  EXPECT_THROW(
      ContainmentConfig::parse("[VLAN 1]\nTrigger = garbage -> revert\n"),
      std::runtime_error);
}

TEST(ContainmentConfig, MalformedServiceThrows) {
  EXPECT_THROW(
      ContainmentConfig::parse("[Sink]\nAddress = not-an-ip\nPort = 25\n"),
      std::runtime_error);
}

// --- SampleLibrary --------------------------------------------------------

TEST(SampleLibrary, BatchGlobAndHashes) {
  SampleLibrary library;
  for (int i = 0; i < 3; ++i)
    library.add(util::format("rustock.100921.%03d.exe", i));
  library.add("grum.100818.000.exe");

  auto batch = library.match("rustock.100921.*.exe");
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], "rustock.100921.000.exe");

  auto md5a = library.md5("rustock.100921.000.exe");
  auto md5b = library.md5("rustock.100921.001.exe");
  ASSERT_TRUE(md5a && md5b);
  EXPECT_NE(*md5a, *md5b);
  EXPECT_EQ(md5a->size(), 32u);
  EXPECT_FALSE(library.md5("unknown.exe"));

  auto payload = library.payload("grum.100818.000.exe");
  ASSERT_TRUE(payload);
  // The payload leads with the sample name (the inmate's behaviour
  // factory keys on it).
  EXPECT_EQ(payload->substr(0, payload->find('\n')), "grum.100818.000.exe");
}

// --- Policies ----------------------------------------------------------------

PolicyEnv test_env() {
  PolicyEnv env;
  env.services["sink"] = {Ipv4Addr(10, 3, 0, 9), 9999};
  env.services["smtpsink"] = {Ipv4Addr(10, 3, 0, 10), 2525};
  env.services["bannersmtpsink"] = {Ipv4Addr(10, 3, 1, 4), 2526};
  env.services["autoinfect"] = {Ipv4Addr(10, 9, 8, 7), 6543};
  return env;
}

FlowInfo flow_to(Endpoint dst, std::uint16_t vlan = 16) {
  FlowInfo info;
  info.shim.orig = {Ipv4Addr(10, 0, 0, 23), 1234};
  info.shim.resp = dst;
  info.shim.vlan = vlan;
  return info;
}

TEST(Policies, RegistryHasBuiltins) {
  register_builtin_policies();
  auto& registry = PolicyRegistry::instance();
  for (const char* name :
       {"DefaultDeny", "SinkAll", "Rustock", "Grum", "Waledac",
        "WaledacTest", "Storm", "MegaD", "Clickbot", "WormFarm"}) {
    EXPECT_TRUE(registry.create(name, test_env())) << name;
  }
  EXPECT_FALSE(registry.create("NoSuchPolicy", test_env()));
}

TEST(Policies, DefaultDenyDropsEverything) {
  Policy policy("DefaultDeny");
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(8, 8, 8, 8), 53})).verdict,
            shim::Verdict::kDrop);
}

TEST(Policies, SinkAllReflectsToSink) {
  auto env = test_env();
  SinkAllPolicy policy(env);
  auto decision = policy.decide(flow_to({Ipv4Addr(7, 7, 7, 7), 6667}));
  EXPECT_EQ(decision.verdict, shim::Verdict::kReflect);
  EXPECT_EQ(decision.target.str(), "10.3.0.9:9999");
}

TEST(Policies, SinkAllWithoutSinkDrops) {
  PolicyEnv env;  // No services at all.
  SinkAllPolicy policy(env);
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(7, 7, 7, 7), 80})).verdict,
            shim::Verdict::kDrop);
}

TEST(Policies, RustockMatrix) {
  auto env = test_env();
  RustockPolicy policy(env);
  // HTTPS C&C forwarded.
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(5, 5, 5, 5), 443})).verdict,
            shim::Verdict::kForward);
  // HTTP rewritten (C&C filtering).
  auto http = policy.decide(flow_to({Ipv4Addr(5, 5, 5, 5), 80}));
  EXPECT_EQ(http.verdict, shim::Verdict::kRewrite);
  EXPECT_TRUE(policy.make_rewrite_handler(
      flow_to({Ipv4Addr(5, 5, 5, 5), 80})));
  // SMTP reflected to the simple sink.
  auto smtp = policy.decide(flow_to({Ipv4Addr(5, 5, 5, 5), 25}));
  EXPECT_EQ(smtp.verdict, shim::Verdict::kReflect);
  EXPECT_EQ(smtp.target.port, 2525);
  // Anything else sinks.
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(5, 5, 5, 5), 6667})).verdict,
            shim::Verdict::kReflect);
  // Auto-infection flows get the REWRITE impersonation.
  auto infect = policy.decide(flow_to({Ipv4Addr(10, 9, 8, 7), 6543}));
  EXPECT_EQ(infect.verdict, shim::Verdict::kRewrite);
}

TEST(Policies, GrumUsesBannerSink) {
  auto env = test_env();
  GrumPolicy policy(env);
  auto smtp = policy.decide(flow_to({Ipv4Addr(5, 5, 5, 5), 25}, 18));
  EXPECT_EQ(smtp.verdict, shim::Verdict::kReflect);
  EXPECT_EQ(smtp.target.port, 2526);  // Banner-grabbing sink.
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(5, 5, 5, 5), 80}, 18)).verdict,
            shim::Verdict::kForward);
}

TEST(Policies, WaledacTestAllowsExactlyOneTestMessage) {
  auto env = test_env();
  WaledacPolicy policy(env, /*allow_test_smtp=*/true);
  auto first = policy.decide(flow_to({Ipv4Addr(64, 233, 1, 1), 25}, 30));
  EXPECT_EQ(first.verdict, shim::Verdict::kForward);
  auto second = policy.decide(flow_to({Ipv4Addr(64, 233, 1, 1), 25}, 30));
  EXPECT_EQ(second.verdict, shim::Verdict::kReflect);
  // Another inmate gets its own one-shot.
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(64, 233, 1, 1), 25}, 31)).verdict,
            shim::Verdict::kForward);
}

TEST(Policies, WaledacStrictNeverForwardsSmtp) {
  auto env = test_env();
  WaledacPolicy policy(env, /*allow_test_smtp=*/false);
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(64, 233, 1, 1), 25})).verdict,
            shim::Verdict::kReflect);
}

TEST(Policies, StormSinksFtp) {
  auto env = test_env();
  StormPolicy policy(env);
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(5, 5, 5, 5), 80})).verdict,
            shim::Verdict::kForward);
  // The iframe-injection FTP attempt: caught by the sink reflection.
  auto ftp = policy.decide(flow_to({Ipv4Addr(20, 1, 2, 3), 21}));
  EXPECT_EQ(ftp.verdict, shim::Verdict::kReflect);
  EXPECT_EQ(ftp.target.str(), "10.3.0.9:9999");
}

TEST(Policies, WormFarmRedirectsRoundRobin) {
  auto env = test_env();
  InlinePolicyServices services;
  services.list_inmates_fn = [] {
    return PolicyServices::InmateList{
        {20, Ipv4Addr(10, 0, 0, 10)},
        {21, Ipv4Addr(10, 0, 0, 11)},
        {22, Ipv4Addr(10, 0, 0, 12)},
    };
  };
  env.backend = &services;
  WormFarmPolicy policy(env);
  auto info = flow_to({Ipv4Addr(99, 1, 2, 3), 445}, 20);
  auto first = policy.decide(info);
  EXPECT_EQ(first.verdict, shim::Verdict::kRedirect);
  EXPECT_EQ(first.target.port, 445);       // Port preserved.
  EXPECT_NE(first.target.addr.value(),
            Ipv4Addr(10, 0, 0, 10).value());  // Never back to self.
  // Same scanned address again: sticky (multi-connection exploits must
  // land on the same victim).
  auto again = policy.decide(info);
  EXPECT_EQ(first.target.addr, again.target.addr);
  // A different scanned address rotates to the next victim.
  auto other = policy.decide(flow_to({Ipv4Addr(99, 1, 2, 4), 445}, 20));
  EXPECT_NE(first.target.addr, other.target.addr);
}

TEST(Policies, WormFarmDropsWithoutVictims) {
  auto env = test_env();
  InlinePolicyServices services;
  services.list_inmates_fn = [] {
    return PolicyServices::InmateList{
        {20, Ipv4Addr(10, 0, 0, 10)}};  // Only the originator itself.
  };
  env.backend = &services;
  WormFarmPolicy policy(env);
  EXPECT_EQ(policy.decide(flow_to({Ipv4Addr(99, 1, 2, 3), 445}, 20)).verdict,
            shim::Verdict::kDrop);
}

// --- ContainmentServer overload refusal -----------------------------------

// A server whose decision queue holds one entry and refuses beyond it:
// the first TCP request shim occupies the queue for five simulated
// seconds, so the TCP and UDP requests behind it are shed. Both refusals
// must carry the same "OverloadShed" DROP response shim and publish the
// same kCsDecision event, differing only in the flow and protocol.
TEST(ContainmentServerOverload, RefusesTcpAndUdpWithOneShedResponse) {
  constexpr std::uint16_t kCsPort = 7000;
  const Ipv4Addr cs_addr(10, 9, 0, 1);
  const Ipv4Addr client_addr(10, 9, 0, 2);
  const util::Ipv4Net net(Ipv4Addr(10, 9, 0, 0), 24);

  sim::EventLoop loop;
  net::HostStack cs_host(loop, "cs", util::MacAddr::local(0x91), 1);
  net::HostStack client(loop, "client", util::MacAddr::local(0x92), 2);
  sim::Port::connect(cs_host.nic(), client.nic(), util::microseconds(20));
  cs_host.configure({cs_addr, net, client_addr, {}});
  client.configure({client_addr, net, cs_addr, {}});

  ContainmentServer cs(cs_host, kCsPort, client_addr);
  cs.set_overload({util::seconds(5), 1, /*refuse=*/true});
  std::vector<std::string> events;
  cs.telemetry().bus().subscribe(
      obs::FarmEvent::Kind::kCsDecision,
      [&](const obs::FarmEvent& event) {
        events.push_back(obs::format_event(event));
      });

  shim::RequestShim queued{{Ipv4Addr(10, 0, 0, 16), 1111},
                           {Ipv4Addr(203, 0, 113, 5), 25}, 16, 0};
  shim::RequestShim shed_tcp{{Ipv4Addr(10, 0, 0, 17), 2222},
                             {Ipv4Addr(198, 51, 100, 7), 25}, 17, 0};
  shim::RequestShim shed_udp{{Ipv4Addr(10, 0, 0, 18), 3333},
                             {Ipv4Addr(192, 0, 2, 53), 53}, 18, 0};

  auto open_with = [&](const shim::RequestShim& request,
                       std::vector<std::uint8_t>* reply, bool* closed) {
    auto conn = client.connect({cs_addr, kCsPort});
    conn->on_connected = [conn, request] { conn->send(request.encode()); };
    conn->on_data = [reply](std::span<const std::uint8_t> data) {
      reply->insert(reply->end(), data.begin(), data.end());
    };
    conn->on_remote_close = [closed] { *closed = true; };
    return conn;
  };
  std::vector<std::uint8_t> queued_reply, tcp_reply, udp_reply;
  bool queued_closed = false, tcp_closed = false;
  auto queued_conn = open_with(queued, &queued_reply, &queued_closed);
  loop.run_for(util::milliseconds(100));
  auto tcp_conn = open_with(shed_tcp, &tcp_reply, &tcp_closed);
  loop.run_for(util::milliseconds(100));
  auto sock = client.udp_open(4444);
  sock->on_datagram = [&](util::Endpoint from, std::vector<std::uint8_t> data) {
    EXPECT_EQ(from, (util::Endpoint{cs_addr, kCsPort}));
    udp_reply = std::move(data);
  };
  std::vector<std::uint8_t> datagram = shed_udp.encode();
  datagram.push_back(0x42);  // Payload behind the shim.
  sock->send_to({cs_addr, kCsPort}, datagram);
  loop.run_for(util::seconds(1));

  // The first request still waits in the queue; the other two were shed.
  EXPECT_EQ(cs.pending_decisions(), 1u);
  EXPECT_TRUE(queued_reply.empty());
  EXPECT_FALSE(queued_closed);
  EXPECT_TRUE(tcp_closed);

  auto refusal = [&](const shim::RequestShim& request) {
    shim::ResponseShim response;
    response.orig = request.orig;
    response.resp = request.resp;
    response.verdict = shim::Verdict::kDrop;
    response.policy_name = "OverloadShed";
    response.annotation = "decision queue full";
    response.policy_epoch = cs.policy_epoch();
    return response.encode();
  };
  EXPECT_EQ(tcp_reply, refusal(shed_tcp));
  EXPECT_EQ(udp_reply, refusal(shed_udp));
  const auto parsed = shim::ResponseShim::parse(udp_reply);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->verdict, shim::Verdict::kDrop);
  EXPECT_FALSE(parsed->cacheable);
  EXPECT_FALSE(parsed->limit_bytes_per_sec);

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0],
            "100060 cs_decision  vlan=17 proto=6 dst=198.51.100.7:25 "
            "verdict=3 src=0 policy=OverloadShed ann=decision queue full "
            "b2s=0 b2i=0 trigger= action=revert");
  EXPECT_EQ(events[1],
            "200020 cs_decision  vlan=18 proto=17 dst=192.0.2.53:53 "
            "verdict=3 src=0 policy=OverloadShed ann=decision queue full "
            "b2s=0 b2i=0 trigger= action=revert");
}

}  // namespace
}  // namespace gq::cs

// Tests for the paper's suggested extensions and for robustness under
// adverse conditions: containment-server clustering (§7.2), the DNS
// sinkhole policy (UDP REWRITE), the policy prober (§8 future work),
// packet loss on farm links (shim retransmission + splice replay), flow
// garbage collection, and malformed-input fuzzing of the frame decoder.
#include <gtest/gtest.h>

#include "containment/policies.h"
#include "containment/prober.h"
#include "core/farm.h"
#include "extnet/extnet.h"
#include "malware/dgabot.h"
#include "malware/spambot.h"
#include "packet/frame.h"
#include "util/bytes.h"
#include "services/http.h"
#include "util/strings.h"

namespace gq {
namespace {

using util::Ipv4Addr;

// --- Containment-server cluster (§7.2) ---------------------------------

TEST(CsCluster, DistributesDecisionsByVlan) {
  core::Farm farm;
  auto& cc_host = farm.add_external_host("cc", Ipv4Addr(50, 8, 207, 91));
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());

  auto& sub = farm.add_subfarm("Clustered");
  sub.add_catchall_sink();
  sinks::SmtpSinkConfig sink_config;
  sink_config.port = 2526;
  auto& sink = sub.add_smtp_sink(sink_config, "bannersmtpsink");
  sub.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});
  sub.containment().samples().add("grum.000.exe");
  auto& second_cs = sub.add_containment_server();
  second_cs.samples().add("grum.000.exe");
  sub.catalog().register_prototype(
      "grum.*", [](const std::string&, util::Rng& rng) {
        mal::SpambotConfig config;
        config.family = "grum";
        config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
        config.send_interval = util::seconds(2);
        return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
      });
  sub.configure_containment(
      "[VLAN 16-31]\nDecider = Grum\nInfection = grum.*\n");

  // VLANs 16 and 17 land on different cluster members.
  sub.create_inmate(inm::HostingKind::kVm, 16);
  sub.create_inmate(inm::HostingKind::kVm, 17);
  farm.run_for(util::minutes(10));

  auto cluster = sub.containment_cluster();
  ASSERT_EQ(cluster.size(), 2u);
  EXPECT_GT(cluster[0]->flows_decided(), 10u);
  EXPECT_GT(cluster[1]->flows_decided(), 10u);
  // Both inmates' spam ends up harvested; nothing broke.
  EXPECT_GT(sink.by_source().size(), 1u);
  EXPECT_GT(sink.data_transfers(), 100u);
}

// --- DNS sinkhole (UDP REWRITE) -----------------------------------------

TEST(DnsSinkhole, SteersDgaBotIntoSink) {
  core::Farm farm;
  core::SubfarmOptions options;
  options.dns_service = Ipv4Addr(198, 41, 0, 4);  // Fake external resolver.
  auto& sub = farm.add_subfarm("DgaLab", options);
  auto& sink = sub.add_catchall_sink();
  const util::Ipv4Addr sink_addr = sub.policy_env().service("sink").addr;

  mal::DgaBotConfig bot_config;
  bot_config.domains_per_round = 8;
  bot_config.c2_port = 9999;  // Same port the sink listens on.

  auto policy =
      std::make_shared<cs::DnsSinkholePolicy>(sub.policy_env(), sink_addr);
  // Sinkhole the 4th generated domain of day 0.
  policy->add_sinkholed_domain(
      mal::dga_domain(bot_config.dga_seed, 0, 3, bot_config.tld));
  sub.bind_policy(16, 31, policy);

  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(1));
  inmate.infect_with(
      std::make_unique<mal::DgaBotBehavior>(bot_config, farm.rng().fork()),
      "dga.exe");
  farm.run_for(util::minutes(5));

  EXPECT_GE(policy->queries_answered(), 4u);   // NXDOMAINs + the hit.
  EXPECT_GE(policy->queries_sinkholed(), 1u);
  // The bot resolved the sinkholed domain and connected — into the sink.
  EXPECT_GE(sink.tcp_flows(), 1u);
  bool saw_dga_hello = false;
  for (const auto& record : sink.records())
    if (record.first_bytes.find("HELLO-DGA") != std::string::npos)
      saw_dga_hello = true;
  EXPECT_TRUE(saw_dga_hello);
}

// --- Policy prober (§8 future work) -------------------------------------

TEST(PolicyProber, RustockPassesSafetyExpectations) {
  cs::register_builtin_policies();
  cs::PolicyEnv env;
  env.services["sink"] = {Ipv4Addr(10, 3, 0, 9), 9999};
  env.services["smtpsink"] = {Ipv4Addr(10, 3, 0, 10), 2525};
  auto policy = cs::PolicyRegistry::instance().create("Rustock", env);
  ASSERT_TRUE(policy);

  cs::PolicyProber prober(policy);
  prober.expect_no_spam_escape();
  prober.run();
  EXPECT_GT(prober.probes().size(), 100u);
  EXPECT_TRUE(prober.violations().empty());
  const std::string card = prober.render_card();
  EXPECT_NE(card.find("Rustock"), std::string::npos);
  EXPECT_NE(card.find("0 violated"), std::string::npos);
  EXPECT_NE(card.find("port 25"), std::string::npos);
}

TEST(PolicyProber, ForwardAllViolatesSpamEscape) {
  cs::PolicyProber prober(std::make_shared<cs::ForwardAllPolicy>());
  prober.expect_no_spam_escape();
  prober.run();
  EXPECT_FALSE(prober.violations().empty());
  EXPECT_NE(prober.render_card().find("VIOLATION"), std::string::npos);
}

TEST(PolicyProber, CustomExpectation) {
  cs::PolicyEnv env;
  env.services["sink"] = {Ipv4Addr(10, 3, 0, 9), 9999};
  cs::PolicyProber prober(std::make_shared<cs::SinkAllPolicy>(env));
  prober.expect(*cs::FlowPattern::parse("*:*/*"),
                {shim::Verdict::kReflect},
                "a sink-all policy must only ever reflect");
  prober.run();
  EXPECT_TRUE(prober.violations().empty());
}

// --- Robustness: packet loss on the inmate link --------------------------

TEST(Robustness, ReflectSurvivesLossyInmateLink) {
  core::Farm farm;
  auto& sub = farm.add_subfarm("Lossy");
  auto& sink = sub.add_catchall_sink();
  sub.bind_policy(16, 31,
                  std::make_shared<cs::SinkAllPolicy>(sub.policy_env()));
  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(1));
  ASSERT_EQ(inmate.state(), inm::InmateState::kRunning);

  // 10% loss on the inmate's NIC from here on: the shim exchange, the
  // splice, and the replay all have to retransmit their way through.
  inmate.host().nic().set_loss(0.10, 77);

  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    auto conn = inmate.host().connect({Ipv4Addr(7, 7, 7, 7), 6667});
    conn->on_connected = [conn, &delivered] {
      conn->send("BEACON\r\n");
      ++delivered;
      conn->close();
    };
  }
  farm.run_for(util::minutes(5));
  EXPECT_GE(delivered, 8);  // A few may exhaust retries; most connect.
  EXPECT_GE(sink.tcp_flows(), 8u);
  int beacons = 0;
  for (const auto& record : sink.records())
    if (record.first_bytes.find("BEACON") != std::string::npos) ++beacons;
  EXPECT_GE(beacons, 8);
}

// --- Flow garbage collection ---------------------------------------------

TEST(Robustness, IdleFlowsAreCollected) {
  core::Farm farm;
  auto& sub = farm.add_subfarm("Gc");
  sub.add_catchall_sink();
  sub.bind_policy(16, 31,
                  std::make_shared<cs::SinkAllPolicy>(sub.policy_env()));
  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(1));

  for (int i = 0; i < 5; ++i) {
    auto conn = inmate.host().connect({Ipv4Addr(9, 9, 9, 9), 6667});
    conn->on_connected = [conn] { conn->send("x"); };
    // Deliberately never closed: the flow goes idle.
  }
  farm.run_for(util::minutes(1));
  EXPECT_GE(sub.router().flows_active(), 5u);
  // Default flow timeout is 5 minutes of inactivity.
  farm.run_for(util::minutes(7));
  EXPECT_EQ(sub.router().flows_active(), 0u);
  EXPECT_EQ(sub.router().flows_created(), 5u);
}

// --- Frame decoder fuzz -----------------------------------------------------

TEST(Fuzz, DecodeFrameNeverCrashesOnGarbage) {
  util::Rng rng(0xFACE);
  for (int i = 0; i < 20000; ++i) {
    const std::size_t size = rng.below(120);
    std::vector<std::uint8_t> bytes(size);
    for (auto& byte : bytes)
      byte = static_cast<std::uint8_t>(rng.next());
    auto frame = pkt::decode_frame(bytes);  // Must not crash or throw.
    if (frame && frame->ip) {
      // Whatever parsed must re-encode without crashing either.
      EXPECT_FALSE(frame->encode().empty());
    }
  }
  SUCCEED();
}

TEST(Fuzz, DecodeTruncatedRealFramesNeverCrashes) {
  // Take a real frame and feed every prefix of it.
  pkt::DecodedFrame frame;
  frame.eth.ethertype = pkt::kEtherTypeIpv4;
  frame.eth.vlan = 16;
  frame.ip = pkt::Ipv4Packet{};
  frame.ip->src = Ipv4Addr(10, 0, 0, 23);
  frame.ip->dst = Ipv4Addr(1, 2, 3, 4);
  frame.tcp = pkt::TcpSegment{};
  frame.tcp->payload = util::to_bytes("GET / HTTP/1.1\r\n");
  auto bytes = frame.encode();
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    pkt::decode_frame(prefix);
  }
  SUCCEED();
}

}  // namespace
}  // namespace gq

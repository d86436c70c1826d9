// End-to-end farm scenarios through the public core::Farm API. These are
// the system-level acceptance tests: a spambot farm in the Figure 6/7
// configuration (auto-infection, C&C forwarding, SMTP reflection, spam
// harvest, activity triggers, Figure 7 report), a worm honeyfarm
// (Table 1 mechanics), and containment-safety invariants (nothing
// escapes to external victims).
#include <gtest/gtest.h>

#include "core/farm.h"
#include "extnet/extnet.h"
#include "containment/policies.h"
#include "malware/spambot.h"
#include "malware/worm.h"
#include "services/http.h"
#include "util/strings.h"

namespace gq {
namespace {

using util::Ipv4Addr;

// A complete spam-farm scenario shared by several tests.
struct SpamFarmFixture : ::testing::Test {
  core::Farm farm;
  net::HostStack* cc_host = nullptr;
  std::unique_ptr<ext::CcServer> cc;
  net::HostStack* victim_host = nullptr;
  std::unique_ptr<ext::PolicedSmtpServer> victim_smtp;
  core::Subfarm* sub = nullptr;
  sinks::SmtpSink* smtp_sink = nullptr;

  void SetUp() override {
    // Simulated Internet: a C&C server and a victim SMTP server.
    cc_host = &farm.add_external_host("cc", Ipv4Addr(50, 8, 207, 91));
    cc = std::make_unique<ext::CcServer>(*cc_host, 80);
    victim_host =
        &farm.add_external_host("victim-mx", Ipv4Addr(64, 12, 88, 7));
    victim_smtp = std::make_unique<ext::PolicedSmtpServer>(
        *victim_host, 25, &farm.cbl());

    // The C&C instructs bots to spam the victim.
    mal::SpamTask task;
    task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
    task.subject = "cheap meds";
    task.body = "click here";
    cc->set_document("/c2/tasks", task.serialize());

    // Subfarm in the Figure 6 configuration.
    sub = &farm.add_subfarm("Botfarm");
    sub->add_catchall_sink();
    sinks::SmtpSinkConfig sink_config;
    sink_config.port = 2526;
    smtp_sink = &sub->add_smtp_sink(sink_config, "bannersmtpsink");
    sub->set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});

    // Samples + behaviour prototypes.
    for (int i = 0; i < 3; ++i)
      sub->containment().samples().add(
          util::format("grum.100818.%03d.exe", i));
    sub->catalog().register_prototype(
        "grum.*", [](const std::string&, util::Rng& rng) {
          mal::SpambotConfig config;
          config.family = "grum";
          config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
          config.send_interval = util::seconds(2);
          return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
        });

    sub->configure_containment(R"(
[VLAN 16-17]
Decider = Grum
Infection = grum.100818.*.exe

[VLAN 16-19]
Trigger = *:25/tcp / 30min < 1 -> revert
)");
  }
};

TEST_F(SpamFarmFixture, FullSpambotLifecycle) {
  auto& inmate = sub->create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(10));

  // The inmate booted, got infected, and is running the sample.
  EXPECT_EQ(inmate.state(), inm::InmateState::kRunning);
  EXPECT_EQ(inmate.current_sample(), "grum.100818.000.exe");
  EXPECT_GE(inmate.infections(), 1);

  // C&C lifeline worked (FORWARD verdict let it through).
  EXPECT_GE(cc->requests(), 1u);

  // Spam was harvested by the sink...
  EXPECT_GT(smtp_sink->sessions(), 50u);
  EXPECT_GT(smtp_sink->data_transfers(), 50u);
  ASSERT_FALSE(smtp_sink->harvest().empty());
  EXPECT_EQ(smtp_sink->harvest().front().mail_from, "grum@bot.example");

  // ...and NONE of it reached the real victim.
  EXPECT_EQ(victim_smtp->sessions(), 0u);
  EXPECT_EQ(victim_smtp->messages_accepted(), 0u);
  EXPECT_TRUE(farm.reporter().blacklisted_inmates().empty());

  // The report reflects the containment: FORWARDs (C&C) and REFLECTs.
  auto totals = farm.reporter().verdict_totals();
  EXPECT_GE(totals[shim::Verdict::kForward], 1u);
  EXPECT_GT(totals[shim::Verdict::kReflect], 50u);
  EXPECT_GE(totals[shim::Verdict::kRewrite], 1u);  // Auto-infection.
  EXPECT_GE(farm.reporter().infections_served(), 1u);

  const std::string report = farm.report();
  EXPECT_NE(report.find("Botfarm"), std::string::npos);
  EXPECT_NE(report.find("Grum"), std::string::npos);
  EXPECT_NE(report.find("REFLECT"), std::string::npos);
  EXPECT_NE(report.find("SMTP sessions"), std::string::npos);
  EXPECT_NE(report.find("autoinfection"), std::string::npos);
}

TEST_F(SpamFarmFixture, BatchAdvancesAcrossReverts) {
  auto& inmate = sub->create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(3));
  ASSERT_EQ(inmate.current_sample(), "grum.100818.000.exe");
  inmate.revert();
  farm.run_for(util::minutes(3));
  // Reinfection serves the next sample in the batch (§6.6).
  EXPECT_EQ(inmate.current_sample(), "grum.100818.001.exe");
  EXPECT_EQ(inmate.state(), inm::InmateState::kRunning);
}

TEST_F(SpamFarmFixture, RebootKeepsSample) {
  auto& inmate = sub->create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(3));
  ASSERT_EQ(inmate.current_sample(), "grum.100818.000.exe");
  inmate.reboot();
  farm.run_for(util::minutes(2));
  // Reboots must NOT reinfect (§6.6): same sample keeps running.
  EXPECT_EQ(inmate.current_sample(), "grum.100818.000.exe");
  EXPECT_EQ(inmate.state(), inm::InmateState::kRunning);
}

TEST_F(SpamFarmFixture, QuietInmateTriggersRevert) {
  // An inmate whose sample has no behaviour model stays silent; the
  // 30-minute absence trigger must revert it via the containment
  // server -> inmate controller path.
  sub->containment().samples().add("unknown.sample.exe");
  auto config_text = R"(
[VLAN 17]
Decider = Grum
Infection = unknown.sample.*

[VLAN 16-19]
Trigger = *:25/tcp / 30min < 1 -> revert
)";
  sub->configure_containment(config_text);
  sub->create_inmate(inm::HostingKind::kVm, 17);

  int reverts_seen = 0;
  farm.controller().set_action_handler(
      [&](const inm::InmateController::Action& action) {
        if (action.verb == "revert" && action.vlan == 17) ++reverts_seen;
      });
  farm.run_for(util::minutes(45));
  EXPECT_GE(reverts_seen, 1);
  EXPECT_GE(farm.reporter().trigger_firings(), 1u);
}

TEST_F(SpamFarmFixture, ActiveSpambotNotReverted) {
  auto& inmate = sub->create_inmate(inm::HostingKind::kVm);
  int reverts_seen = 0;
  farm.controller().set_action_handler(
      [&](const inm::InmateController::Action& action) {
        if (action.verb == "revert") ++reverts_seen;
      });
  farm.run_for(util::minutes(45));
  // Continuous SMTP activity means the absence trigger never fires.
  EXPECT_EQ(reverts_seen, 0);
  EXPECT_EQ(inmate.current_sample(), "grum.100818.000.exe");
}

TEST_F(SpamFarmFixture, TwoInmatesIndependentAddresses) {
  sub->create_inmate(inm::HostingKind::kVm);
  sub->create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(5));
  const auto& bindings = sub->router().inmates().bindings();
  ASSERT_EQ(bindings.size(), 2u);
  EXPECT_GT(smtp_sink->by_source().size(), 1u);  // Both bots spamming.
}

// --- Worm honeyfarm ------------------------------------------------------

TEST(WormFarm, PropagationChainsStayInside) {
  core::Farm farm;
  auto& sub = farm.add_subfarm("WormFarm");
  // A decoy external host that must never be touched.
  auto& decoy = farm.add_external_host("decoy", Ipv4Addr(23, 32, 2, 2));
  bool decoy_touched = false;
  decoy.listen(445, [&](std::shared_ptr<net::TcpConnection>) {
    decoy_touched = true;
  });

  sub.containment().bind_policy(
      16, 31, std::make_shared<gq::cs::WormFarmPolicy>(sub.policy_env()));

  mal::WormFamily family = mal::table1_families()[0];  // Korgo.V-like.
  std::vector<mal::InfectionEvent> infections;
  auto on_infection = [&](const mal::InfectionEvent& event) {
    infections.push_back(event);
  };

  // Five inmates; no auto-infection (worm model infects directly).
  std::vector<inm::Inmate*> inmates;
  for (int i = 0; i < 5; ++i)
    inmates.push_back(&sub.create_inmate(inm::HostingKind::kVm));
  farm.run_for(util::minutes(2));  // Boot everyone.

  for (std::size_t i = 0; i < inmates.size(); ++i) {
    ASSERT_EQ(inmates[i]->state(), inm::InmateState::kRunning)
        << "inmate " << i;
    inmates[i]->infect_with(
        std::make_unique<mal::WormHostBehavior>(
            family, inmates[i]->vlan(), /*initially_infected=*/i == 0,
            on_infection, farm.rng().fork()),
        family.executable);
  }
  farm.run_for(util::minutes(5));

  // The worm propagated across inmates...
  EXPECT_GE(infections.size(), 2u);
  // ...every infection stayed inside the farm...
  EXPECT_FALSE(decoy_touched);
  // ...and the verdicts were REDIRECTs.
  auto totals = farm.reporter().verdict_totals();
  EXPECT_GT(totals[shim::Verdict::kRedirect], 0u);
  EXPECT_EQ(totals[shim::Verdict::kForward], 0u);
}

// --- Misc farm-level checks ------------------------------------------------

TEST(Farm, VlanPoolExhaustion) {
  core::Farm farm;
  core::SubfarmOptions options;
  options.vlan_first = 100;
  options.vlan_last = 101;  // Two inmates max.
  auto& sub = farm.add_subfarm("Tiny", options);
  sub.create_inmate(inm::HostingKind::kVm);
  sub.create_inmate(inm::HostingKind::kVm);
  EXPECT_THROW(sub.create_inmate(inm::HostingKind::kVm),
               std::runtime_error);
  sub.vlan_pool().release(100);
  EXPECT_NO_THROW(sub.create_inmate(inm::HostingKind::kVm));
}

TEST(Farm, MultipleSubfarmsIsolated) {
  core::Farm farm;
  auto& sub_a = farm.add_subfarm("A");
  auto& sub_b = farm.add_subfarm("B");
  sub_a.create_inmate(inm::HostingKind::kVm);
  sub_b.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(2));
  // Each subfarm's inmate bound inside its own ranges.
  const auto* binding_a = sub_a.router().inmates().by_vlan(16);
  const auto* binding_b = sub_b.router().inmates().by_vlan(32);
  ASSERT_NE(binding_a, nullptr);
  ASSERT_NE(binding_b, nullptr);
  EXPECT_TRUE(sub_a.router().config().internal_net.contains(
      binding_a->internal_addr));
  EXPECT_TRUE(sub_b.router().config().internal_net.contains(
      binding_b->internal_addr));
  EXPECT_NE(binding_a->internal_addr, binding_b->internal_addr);
  EXPECT_NE(binding_a->global_addr, binding_b->global_addr);
}

// Addresses in SubfarmOptions::infra_services sit in the inmates'
// restricted broadcast domain (§5.3): their flows bypass containment,
// with no containment-server decision and no verdict. The same exchange
// with any other management host is contained.
TEST(Farm, InfraServicesBypassContainment) {
  core::Farm farm;
  auto& resolver = farm.add_mgmt_host("resolver");
  auto& other = farm.add_mgmt_host("other");
  for (net::HostStack* host : {&resolver, &other}) {
    host->listen(53, [](std::shared_ptr<net::TcpConnection> conn) {
      std::weak_ptr<net::TcpConnection> weak = conn;
      conn->on_data = [weak](std::span<const std::uint8_t> data) {
        if (auto c = weak.lock()) c->send(data);
      };
    });
  }
  core::SubfarmOptions options;
  options.infra_services = {resolver.addr()};
  auto& sub = farm.add_subfarm("Infra", options);
  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(2));  // Boot + DHCP.
  std::vector<obs::FarmEvent> verdicts;
  farm.telemetry().bus().subscribe(
      obs::FarmEvent::Kind::kFlowVerdict,
      [&verdicts](const obs::FarmEvent& event) { verdicts.push_back(event); });

  // One echo exchange with <addr>:53; returns the bytes echoed back.
  auto exchange = [&](Ipv4Addr addr) {
    std::string answer;
    auto conn = inmate.host().connect({addr, 53});
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak] {
      if (auto c = weak.lock()) c->send("query");
    };
    conn->on_data = [weak, &answer](std::span<const std::uint8_t> data) {
      answer.append(reinterpret_cast<const char*>(data.data()), data.size());
      if (auto c = weak.lock()) c->close();
    };
    farm.run_for(util::seconds(30));
    return answer;
  };

  EXPECT_EQ(exchange(resolver.addr()), "query");
  EXPECT_EQ(sub.containment().flows_decided(), 0u);
  EXPECT_EQ(sub.router().flows_created(), 0u);
  EXPECT_TRUE(verdicts.empty());

  EXPECT_EQ(exchange(other.addr()), "");
  EXPECT_EQ(sub.containment().flows_decided(), 1u);
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].orig_dst, (util::Endpoint{other.addr(), 53}));
  EXPECT_EQ(verdicts[0].verdict, shim::Verdict::kDrop);
}

TEST(Farm, RawIronInmateBootsSlower) {
  core::Farm farm;
  auto& sub = farm.add_subfarm("Iron");
  auto& vm = sub.create_inmate(inm::HostingKind::kVm);
  auto& iron = sub.create_inmate(inm::HostingKind::kRawIron);
  farm.run_for(util::seconds(35));
  EXPECT_EQ(vm.state(), inm::InmateState::kRunning);
  EXPECT_EQ(iron.state(), inm::InmateState::kBooting);
  farm.run_for(util::seconds(30));
  EXPECT_EQ(iron.state(), inm::InmateState::kRunning);
  // Raw-iron revert (PXE reimage) takes ~6 minutes.
  iron.revert();
  farm.run_for(util::minutes(3));
  EXPECT_EQ(iron.state(), inm::InmateState::kReverting);
  farm.run_for(util::minutes(5));
  EXPECT_EQ(iron.state(), inm::InmateState::kRunning);
}

}  // namespace
}  // namespace gq

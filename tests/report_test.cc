// Tests for the reporting pipeline: event aggregation, the Figure 7
// render format, verdict totals (the containment-verification signal),
// blacklist checking, and report rotation.
#include <gtest/gtest.h>

#include "report/reporter.h"

namespace gq::rep {
namespace {

using util::Endpoint;
using util::Ipv4Addr;

using Kind = obs::FarmEvent::Kind;

obs::FarmEvent verdict_event(const std::string& subfarm, std::uint16_t vlan,
                             shim::Verdict verdict,
                             const std::string& policy,
                             const std::string& annotation, Endpoint dst) {
  obs::FarmEvent event;
  event.kind = Kind::kFlowVerdict;
  event.subfarm = subfarm;
  event.vlan = vlan;
  event.verdict = verdict;
  event.policy_name = policy;
  event.annotation = annotation;
  event.orig_dst = dst;
  return event;
}

TEST(Reporter, AggregatesVerdictsPerInmate) {
  Reporter reporter;
  for (int i = 0; i < 682; ++i) {
    reporter.on_event(verdict_event(
        "Botfarm", 18, shim::Verdict::kForward, "Grum", "C&C port",
        {Ipv4Addr(50, 8, 207, 91), 80}));
  }
  for (int i = 0; i < 144; ++i) {
    reporter.on_event(verdict_event(
        "Botfarm", 18, shim::Verdict::kReflect, "Grum",
        "full SMTP containment", {Ipv4Addr(1, 2, static_cast<std::uint8_t>(i), 4), 25}));
  }
  EXPECT_EQ(reporter.flows("Botfarm", 18, shim::Verdict::kForward), 682u);
  EXPECT_EQ(reporter.flows("Botfarm", 18, shim::Verdict::kReflect), 144u);
  EXPECT_EQ(reporter.flows("Botfarm", 19, shim::Verdict::kReflect), 0u);
  EXPECT_EQ(reporter.flows("Other", 18, shim::Verdict::kReflect), 0u);

  auto totals = reporter.verdict_totals();
  EXPECT_EQ(totals[shim::Verdict::kForward], 682u);
  EXPECT_EQ(totals[shim::Verdict::kReflect], 144u);
}

TEST(Reporter, RenderMatchesFigure7Shape) {
  Reporter reporter;
  reporter.on_event(verdict_event("Botfarm", 18, shim::Verdict::kForward,
                                  "Grum", "C&C port",
                                  {Ipv4Addr(50, 8, 207, 91), 80}));
  for (int i = 0; i < 3; ++i) {
    reporter.on_event(verdict_event(
        "Botfarm", 18, shim::Verdict::kReflect, "Grum",
        "full SMTP containment",
        {Ipv4Addr(9, 9, static_cast<std::uint8_t>(i), 9), 25}));
  }
  obs::FarmEvent infection;
  infection.kind = Kind::kInfectionServed;
  infection.subfarm = "Botfarm";
  infection.vlan = 18;
  infection.sample_name = "grum.100818.000.exe";
  infection.sample_md5 = "6f007d640b3d5786a84dedf026c1507c";
  reporter.on_event(infection);

  const std::string report = reporter.render(util::TimePoint{});
  EXPECT_NE(report.find("Inmate Activity"), std::string::npos);
  EXPECT_NE(report.find("Subfarm 'Botfarm'"), std::string::npos);
  EXPECT_NE(report.find("Grum"), std::string::npos);
  EXPECT_NE(report.find("VLAN 18"), std::string::npos);
  EXPECT_NE(report.find("FORWARD"), std::string::npos);
  EXPECT_NE(report.find("C&C port"), std::string::npos);
  // Single target: concrete address; spread targets: wildcard.
  EXPECT_NE(report.find("50.8.207.91"), std::string::npos);
  EXPECT_NE(report.find("*.*.*.*"), std::string::npos);
  EXPECT_NE(report.find("http"), std::string::npos);
  EXPECT_NE(report.find("smtp"), std::string::npos);
  // Auto-infection MD5 shown (Figure 7's REWRITE line).
  EXPECT_NE(report.find("6f007d640b3d5786a84dedf026c1507c"),
            std::string::npos);
}

TEST(Reporter, SafetyRejectionsCounted) {
  Reporter reporter;
  obs::FarmEvent event;
  event.kind = Kind::kSafetyReject;
  event.subfarm = "Botfarm";
  event.vlan = 16;
  reporter.on_event(event);
  reporter.on_event(event);
  const std::string report = reporter.render(util::TimePoint{});
  EXPECT_NE(report.find("Safety filter rejections: 2"), std::string::npos);
}

TEST(Reporter, TriggerAndInfectionCounters) {
  Reporter reporter;
  obs::FarmEvent trigger;
  trigger.kind = Kind::kTriggerFired;
  trigger.subfarm = "X";
  trigger.vlan = 16;
  reporter.on_event(trigger);
  reporter.on_event(trigger);
  obs::FarmEvent infection;
  infection.kind = Kind::kInfectionServed;
  infection.subfarm = "X";
  infection.vlan = 16;
  reporter.on_event(infection);
  EXPECT_EQ(reporter.trigger_firings(), 2u);
  EXPECT_EQ(reporter.infections_served(), 1u);
}

TEST(Reporter, RotationAccumulatesReports) {
  sim::EventLoop loop;
  Reporter reporter;
  reporter.enable_rotation(loop, util::hours(1));
  loop.run_for(util::hours(5) + util::minutes(1));
  EXPECT_EQ(reporter.rotated_reports().size(), 5u);
}

}  // namespace
}  // namespace gq::rep

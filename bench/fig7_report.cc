// Reproduces paper Figure 7: a section of the activity report generated
// by the monitoring setup, for a "Botfarm" subfarm with inmates
// contained under the Rustock and Grum policies — including the
// FORWARDed C&C lifelines, the REFLECTed SMTP containment (with the
// session/flow gap caused by the sink's probabilistic connection
// drops), the auto-infection REWRITEs with sample MD5 hashes, and the
// SMTP session / DATA transfer counters. Exits 1, with a `fig7:` line
// on stderr, when the verification lines break the accounting
// EXPERIMENTS.md states.
#include <cstdio>

#include "core/farm.h"
#include "extnet/extnet.h"
#include "malware/spambot.h"
#include "util/strings.h"

int main() {
  using namespace gq;
  using util::Ipv4Addr;

  core::Farm farm;

  auto& rustock_cc_host =
      farm.add_external_host("rustock-cc", Ipv4Addr(91, 207, 6, 10));
  ext::CcServer rustock_cc(rustock_cc_host, 443);
  auto& grum_cc_host = farm.add_external_host(
      "grum-cc", Ipv4Addr(50, 8, 207, 91));  // 50.8.207.91 as in Figure 7.
  ext::CcServer grum_cc(grum_cc_host, 80);
  farm.add_external_host("victim-mx", Ipv4Addr(64, 12, 88, 7));

  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  task.subject = "pharma express";
  rustock_cc.set_document("/c2/tasks", task.serialize());
  grum_cc.set_document("/c2/tasks", task.serialize());

  auto& sub = farm.add_subfarm("Botfarm");
  sub.add_catchall_sink();
  sinks::SmtpSinkConfig simple_sink;
  simple_sink.port = 2525;
  simple_sink.drop_probability = 0.35;
  auto& rustock_sink = sub.add_smtp_sink(simple_sink, "smtpsink");
  sinks::SmtpSinkConfig banner_sink;
  banner_sink.port = 2526;
  auto& grum_sink = sub.add_smtp_sink(banner_sink, "bannersmtpsink");
  sub.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});

  for (int i = 0; i < 2; ++i) {
    sub.containment().samples().add(
        util::format("rustock.100921.%03d.exe", i));
    sub.containment().samples().add(
        util::format("grum.100818.%03d.exe", i));
  }
  sub.catalog().register_prototype(
      "rustock.*", [](const std::string&, util::Rng& rng) {
        mal::SpambotConfig config;
        config.family = "rustock";
        config.c2 = {Ipv4Addr(91, 207, 6, 10), 443};
        config.send_interval = util::seconds(2);
        return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
      });
  sub.catalog().register_prototype(
      "grum.*", [](const std::string&, util::Rng& rng) {
        mal::SpambotConfig config;
        config.family = "grum";
        config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
        config.send_interval = util::seconds(2);
        return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
      });

  sub.configure_containment(R"(
[VLAN 16-17]
Decider = Rustock
Infection = rustock.100921.*.exe

[VLAN 18-19]
Decider = Grum
Infection = grum.100818.*.exe

[VLAN 16-19]
Trigger = *:25/tcp / 30min < 1 -> revert
)");

  sub.create_inmate(inm::HostingKind::kVm, 16);
  sub.create_inmate(inm::HostingKind::kVm, 18);

  // Hourly report rotation (§6.5).
  farm.reporter().enable_rotation(farm.loop(), util::hours(1));
  farm.run_for(util::hours(2));

  std::printf("Figure 7 reproduction: activity report\n");
  std::printf("%s\n", std::string(60, '=').c_str());
  std::printf("%s\n", farm.report().c_str());

  // The Figure 7 tell-tale: REFLECTed SMTP flows exceed SMTP sessions
  // because the sink drops connections probabilistically.
  const std::uint64_t rustock_flows =
      farm.reporter().flows("Botfarm", 16, shim::Verdict::kReflect);
  std::printf("Verification (Rustock inmate, VLAN 16):\n");
  std::printf("  SMTP flows REFLECTed:   %llu\n",
              static_cast<unsigned long long>(rustock_flows));
  std::printf("  SMTP sessions at sink:  %llu (+ %llu dropped = %llu)\n",
              static_cast<unsigned long long>(rustock_sink.sessions()),
              static_cast<unsigned long long>(
                  rustock_sink.dropped_connections()),
              static_cast<unsigned long long>(
                  rustock_sink.sessions() +
                  rustock_sink.dropped_connections()));
  std::printf("  Grum sink (no drops):   %llu sessions, %llu DATA\n",
              static_cast<unsigned long long>(grum_sink.sessions()),
              static_cast<unsigned long long>(grum_sink.data_transfers()));
  std::printf("  Hourly reports rotated: %zu\n",
              farm.reporter().rotated_reports().size());

  int broken = 0;
  auto expect = [&broken](bool holds, const char* what) {
    if (holds) return;
    std::fprintf(stderr, "fig7: %s\n", what);
    ++broken;
  };
  expect(rustock_flows ==
             rustock_sink.sessions() + rustock_sink.dropped_connections(),
         "Rustock: REFLECTed flows != sink sessions + dropped");
  expect(rustock_sink.dropped_connections() > 0,
         "Rustock: the sink dropped no connection");
  expect(grum_sink.sessions() == grum_sink.data_transfers(),
         "Grum: sink sessions != DATA transfers");
  expect(farm.reporter().rotated_reports().size() == 2,
         "expected 2 hourly reports rotated");
  return broken == 0 ? 0 : 1;
}

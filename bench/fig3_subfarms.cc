// Reproduces paper Figure 3: multiple independent packet routers over
// disjoint VLAN ID ranges — subfarms — enabling parallel experiments on
// one gateway. Three subfarms run three different workloads at once
// (spambot, clickbot, default-deny development); the bench verifies and
// reports their mutual independence: disjoint address bindings, per-
// subfarm containment decisions, and per-subfarm trace/report streams.
// Exits 1, with a `fig3:` line on stderr, when a row breaks the shape
// EXPERIMENTS.md states for it.
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "containment/policies.h"
#include "core/farm.h"
#include "extnet/extnet.h"
#include "malware/clickbot.h"
#include "malware/spambot.h"
#include "util/strings.h"

namespace {

// One printed row of the subfarm table.
struct Row {
  std::uint16_t vlan_first = 0;
  std::uint16_t vlan_last = 0;
  std::uint64_t flows = 0;
  std::uint64_t forward = 0;
  std::uint64_t reflect = 0;
  std::uint64_t rewrite = 0;
  std::size_t pcap_packets = 0;
};

}  // namespace

int main() {
  using namespace gq;
  using util::Ipv4Addr;

  core::Farm farm;

  // Shared simulated Internet.
  auto& cc_host = farm.add_external_host("cc", Ipv4Addr(50, 8, 207, 91));
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());
  cc.set_document("/click/tasks",
                  "click 203.0.113.80:80 /ad?id=1 http://blog.example/\n");
  auto& ad_host = farm.add_external_host("ads", Ipv4Addr(203, 0, 113, 80));
  ext::AdServer ads(ad_host, 80);

  // --- Subfarm 1: spam deployment -------------------------------------
  auto& spam = farm.add_subfarm("Spam");
  spam.add_catchall_sink();
  sinks::SmtpSinkConfig sink_config;
  sink_config.port = 2526;
  auto& smtp_sink = spam.add_smtp_sink(sink_config, "bannersmtpsink");
  spam.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});
  spam.containment().samples().add("grum.000.exe");
  spam.catalog().register_prototype(
      "grum.*", [](const std::string&, util::Rng& rng) {
        mal::SpambotConfig config;
        config.family = "grum";
        config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
        config.send_interval = util::seconds(3);
        return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
      });
  spam.configure_containment(
      "[VLAN 16-31]\nDecider = Grum\nInfection = grum.*\n");
  spam.create_inmate(inm::HostingKind::kVm);
  spam.create_inmate(inm::HostingKind::kVm);

  // --- Subfarm 2: clickbot study ---------------------------------------
  auto& click = farm.add_subfarm("Clickbots");
  click.add_catchall_sink();
  click.set_autoinfect({Ipv4Addr(10, 9, 8, 8), 6543});
  click.containment().samples().add("clicker.000.exe");
  click.catalog().register_prototype(
      "clicker.*", [](const std::string&, util::Rng& rng) {
        mal::ClickbotConfig config;
        config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
        config.click_interval = util::seconds(4);
        return std::make_unique<mal::ClickbotBehavior>(config, rng.fork());
      });
  click.configure_containment(
      "[VLAN 32-47]\nDecider = Clickbot\nInfection = clicker.*\n");
  click.create_inmate(inm::HostingKind::kVm);

  // --- Subfarm 3: fresh-sample development (default-deny) --------------
  auto& dev = farm.add_subfarm("Development");
  auto& dev_sink = dev.add_catchall_sink();
  dev.containment().bind_policy(
      48, 63, std::make_shared<cs::SinkAllPolicy>(dev.policy_env()));
  auto& dev_inmate = dev.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(1));
  {
    mal::SpambotConfig config;
    config.family = "fresh-specimen";
    config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
    dev_inmate.infect_with(std::make_unique<mal::SpambotBehavior>(
                               config, farm.rng().fork()),
                           "fresh.exe");
  }

  farm.run_for(util::minutes(30));

  std::printf("Figure 3 reproduction: three parallel subfarms, one gateway\n\n");
  std::printf("%-14s %8s %10s %10s %10s %8s %9s\n", "SUBFARM", "VLANs",
              "FLOWS", "FORWARD", "REFLECT", "REWRITE", "PCAP pkts");
  std::printf("%s\n", std::string(76, '-').c_str());
  std::map<std::string, Row> rows;
  for (const auto& sub : farm.gateway().subfarms()) {
    const auto& config = sub->config();
    Row& row = rows[config.name];
    row.vlan_first = config.vlan_first;
    row.vlan_last = config.vlan_last;
    row.flows = sub->flows_created();
    row.pcap_packets = sub->trace().packet_count();
    for (std::uint16_t vlan = config.vlan_first; vlan <= config.vlan_last;
         ++vlan) {
      row.forward += farm.reporter().flows(config.name, vlan,
                                           shim::Verdict::kForward);
      row.reflect += farm.reporter().flows(config.name, vlan,
                                           shim::Verdict::kReflect);
      row.rewrite += farm.reporter().flows(config.name, vlan,
                                           shim::Verdict::kRewrite);
    }
    std::printf("%-14s %3u-%-4u %10llu %10llu %10llu %8llu %9zu\n",
                config.name.c_str(), config.vlan_first, config.vlan_last,
                static_cast<unsigned long long>(row.flows),
                static_cast<unsigned long long>(row.forward),
                static_cast<unsigned long long>(row.reflect),
                static_cast<unsigned long long>(row.rewrite),
                row.pcap_packets);
  }
  std::printf("%s\n", std::string(76, '-').c_str());
  std::printf(
      "\nIndependence checks:\n"
      "  spam harvested in Spam's sink:        %llu messages\n"
      "  ad clicks from Clickbots' REWRITEs:   %llu\n"
      "  Development flows all in its own sink: %llu (FORWARDs there: "
      "%llu)\n",
      static_cast<unsigned long long>(smtp_sink.data_transfers()),
      static_cast<unsigned long long>(ads.clicks()),
      static_cast<unsigned long long>(dev_sink.tcp_flows()),
      static_cast<unsigned long long>(farm.reporter().flows(
          "Development", 48, shim::Verdict::kForward)));

  // The shape EXPERIMENTS.md states: every flow carries one of the three
  // verdicts, each subfarm shows its own workload in its own trace, and
  // no two subfarms share a VLAN.
  int broken = 0;
  auto expect = [&broken](bool holds, const std::string& what) {
    if (holds) return;
    std::fprintf(stderr, "fig3: %s\n", what.c_str());
    ++broken;
  };
  for (const auto& [name, row] : rows) {
    expect(row.forward + row.reflect + row.rewrite == row.flows,
           name + ": FORWARD + REFLECT + REWRITE != FLOWS");
    expect(row.pcap_packets > 0, name + ": empty PCAP");
    for (const auto& [other_name, other] : rows)
      expect(name == other_name || row.vlan_last < other.vlan_first ||
                 other.vlan_last < row.vlan_first,
             name + ": VLAN range overlaps " + other_name + "'s");
  }
  const Row& spam_row = rows["Spam"];
  expect(spam_row.forward > 0 && spam_row.reflect > 0,
         "Spam: expected FORWARDed C&C and REFLECTed SMTP");
  expect(smtp_sink.data_transfers() > 0, "Spam: no harvested messages");
  const Row& click_row = rows["Clickbots"];
  expect(click_row.rewrite == click_row.flows,
         "Clickbots: expected every flow REWRITE-observed");
  expect(ads.clicks() > 0 && ads.clicks() <= click_row.rewrite,
         "Clickbots: expected 0 < ad clicks <= REWRITE");
  const Row& dev_row = rows["Development"];
  expect(dev_row.forward == 0, "Development: FORWARDed a flow");
  expect(dev_row.reflect == dev_row.flows &&
             dev_row.flows == dev_sink.tcp_flows(),
         "Development: expected REFLECT == FLOWS == its sink's TCP flows");
  return broken == 0 ? 0 : 1;
}

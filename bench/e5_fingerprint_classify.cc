// Reproduces §7.1 "Unclear phylogenies": third-party family labels are
// unreliable, so GQ classifies batches of samples itself — "we reflect
// all outgoing network activity to our catch-all sink and apply
// network-level fingerprinting on the samples' initial activity trace"
// (the technique behind classifying ~10,000 pay-per-install samples).
//
// The bench runs a batch of samples drawn from four behavioural
// families (two spambot variants, a clickbot, a DGA bot) one after
// another through a sink-everything subfarm, fingerprints each sample's
// initial trace, clusters the fingerprints, and scores the clustering
// against the (hidden) true families. A few samples are deliberately
// split-personality (MegaD-or-Grum, as observed in February 2010).
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "containment/policies.h"
#include "core/farm.h"
#include "malware/clickbot.h"
#include "malware/dgabot.h"
#include "malware/fingerprint.h"
#include "malware/spambot.h"
#include "util/strings.h"

namespace {

using namespace gq;
using util::Ipv4Addr;

std::unique_ptr<inm::Behavior> make_family(int family, util::Rng& rng) {
  switch (family) {
    case 0: {  // Spambot variant A (HTTP C&C on 80).
      mal::SpambotConfig config;
      config.family = "famA";
      config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
      config.c2_poll_interval = util::seconds(40);
      config.send_interval = util::seconds(2);
      return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
    }
    case 1: {  // Spambot variant B (C&C on 8080, different path).
      mal::SpambotConfig config;
      config.family = "famB";
      config.c2 = {Ipv4Addr(50, 8, 207, 91), 8080};
      config.c2_path = "/gate.php";
      config.c2_poll_interval = util::seconds(40);
      config.protocol_violations = true;
      return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
    }
    case 2: {  // Clickbot.
      mal::ClickbotConfig config;
      config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
      config.c2_poll_interval = util::seconds(40);
      config.click_interval = util::seconds(2);
      return std::make_unique<mal::ClickbotBehavior>(config, rng.fork());
    }
    default: {  // DGA bot: DNS-heavy initial trace.
      mal::DgaBotConfig config;
      config.domains_per_round = 6;
      config.round_interval = util::seconds(45);
      return std::make_unique<mal::DgaBotBehavior>(config, rng.fork());
    }
  }
}

}  // namespace

int main() {
  core::Farm farm;
  core::SubfarmOptions options;
  // A (fake) resolver address so DGA samples emit DNS lookups — which
  // the containment reflects into the sink like everything else.
  options.dns_service = Ipv4Addr(198, 41, 0, 4);
  auto& sub = farm.add_subfarm("Classify", options);
  auto& sink = sub.add_catchall_sink();
  sub.containment().bind_policy(
      16, 31, std::make_shared<cs::SinkAllPolicy>(sub.policy_env()));

  // Record original destination ports from the gateway's event stream
  // (the sink only sees the reflected endpoint). The farm's reporter is
  // a bus subscriber already, so this extra tap must not feed it again.
  std::vector<std::uint16_t> event_ports;
  farm.telemetry().bus().subscribe(
      obs::FarmEvent::Kind::kFlowVerdict,
      [&](const obs::FarmEvent& event) {
        event_ports.push_back(event.orig_dst.port);
      });

  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(1));

  // 32 samples, true family hidden from the classifier. A couple of
  // split-personality specimens pick their behaviour at infection time.
  const int kSamples = 32;
  std::vector<int> truth;
  std::vector<mal::Fingerprint> fingerprints;
  util::Rng assignment_rng(2010);

  for (int i = 0; i < kSamples; ++i) {
    int family = static_cast<int>(assignment_rng.below(4));
    if (i % 11 == 10) {  // Split personality: famA or famB, 50/50.
      family = assignment_rng.chance(0.5) ? 0 : 1;
    }
    truth.push_back(family);
    sink.clear_records();
    event_ports.clear();
    auto rng = farm.rng().fork();
    inmate.infect_with(make_family(family, rng),
                       gq::util::format("sample-%03d.exe", i));
    farm.run_for(util::minutes(3));
    if (auto* behavior = inmate.behavior()) behavior->stop();
    fingerprints.push_back(
        mal::make_fingerprint(sink.records(), event_ports, 8));
  }

  auto assignment = mal::cluster(fingerprints, 0.55);

  // Score: for each cluster, its majority family; accuracy = fraction of
  // samples whose cluster majority matches their truth.
  std::map<int, std::map<int, int>> cluster_families;
  for (int i = 0; i < kSamples; ++i)
    ++cluster_families[assignment[i]][truth[i]];
  std::map<int, int> majority;
  for (const auto& [cluster_id, counts] : cluster_families) {
    int best = -1, best_count = -1;
    for (const auto& [family, count] : counts)
      if (count > best_count) best = family, best_count = count;
    majority[cluster_id] = best;
  }
  int correct = 0;
  for (int i = 0; i < kSamples; ++i)
    if (majority[assignment[i]] == truth[i]) ++correct;

  std::printf(
      "E5 reproduction (§7.1 'Unclear phylogenies'): network-level\n"
      "fingerprint classification of a %d-sample batch\n\n", kSamples);
  std::printf("Example fingerprints (first 8 flows vs the sink):\n");
  std::map<int, bool> shown;
  for (int i = 0; i < kSamples; ++i) {
    if (shown[truth[i]]) continue;
    shown[truth[i]] = true;
    std::printf("  family %d: %s\n", truth[i],
                fingerprints[i].str().c_str());
  }
  std::printf("\nClusters found: %zu (true families: 4)\n",
              cluster_families.size());
  for (const auto& [cluster_id, counts] : cluster_families) {
    std::printf("  cluster %d:", cluster_id);
    for (const auto& [family, count] : counts)
      std::printf(" fam%d x%d", family, count);
    std::printf("\n");
  }
  const double accuracy = 100.0 * correct / kSamples;
  std::printf("\nMajority-label accuracy: %d/%d (%.0f%%)\n", correct,
              kSamples, accuracy);
  std::printf(
      "Shape check: the batch separates into family-shaped clusters from\n"
      "initial traces alone — the capability GQ used on ~10,000 samples.\n");
  return accuracy >= 75.0 ? 0 : 1;
}

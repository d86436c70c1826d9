// Determinism gates for sharded farm execution (DESIGN.md §12): for a
// fixed seed, the merged observable event stream (obs::format_event
// lines across all shards) is byte-identical across reruns, and two
// different seeds provably diverge, so "identical" is not "empty or
// constant". A teardown test covers the sharded incarnation of the
// use-after-free class: destroying the farm mid-flight, with frames on
// the chain links between shards and pending closures of every shard
// on the shared loop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sharded_farm.h"
#include "extnet/extnet.h"
#include "malware/spambot.h"
#include "util/strings.h"

namespace gq {
namespace {

using util::Ipv4Addr;

constexpr Ipv4Addr kCcAddr(50, 8, 207, 91);

// The Grum spambot workload from bench/s1_scalability.cc, one subfarm
// per shard: inmates auto-infect, poll the C&C for a spam task
// (port 80, FORWARD — and the C&C host lives only on shard 0, so every
// other shard's poll crosses the bridged external segment), then spam
// port 25 (REFLECT into the shard-local banner sink).
void build_spam_shard(core::Farm& farm, std::size_t shard) {
  auto& sub = farm.add_subfarm(util::format("Shard%zu", shard));
  sub.add_catchall_sink();
  sinks::SmtpSinkConfig sink_config;
  sink_config.port = 2526;
  sub.add_smtp_sink(sink_config, "bannersmtpsink");
  sub.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});
  sub.containment().samples().add("grum.000.exe");
  sub.catalog().register_prototype(
      "grum.*", [](const std::string&, util::Rng& rng) {
        mal::SpambotConfig config;
        config.family = "grum";
        config.c2 = {kCcAddr, 80};
        config.send_interval = util::seconds(2);
        return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
      });
  sub.configure_containment(
      util::format("[VLAN %d-%d]\nDecider = Grum\nInfection = grum.*\n",
                   sub.router().config().vlan_first,
                   sub.router().config().vlan_last));
  for (int i = 0; i < 2; ++i) sub.create_inmate(inm::HostingKind::kVm);
}

struct RunResult {
  std::vector<std::string> lines;
  std::uint64_t cc_requests = 0;
  std::uint64_t cross_shard_messages = 0;
};

RunResult run_spam_farm(std::uint64_t seed, std::size_t shards,
                        util::Duration duration) {
  core::ShardedFarmOptions options;
  options.shards = shards;
  options.seed = seed;
  core::ShardedFarm farm(options, build_spam_shard);
  // The C&C anchor is homed on shard 0 and declared after the farm so
  // its HttpServer (which references the host stack) dies first.
  auto& cc_host = farm.shard(0).add_external_host("cc", kCcAddr);
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());

  farm.run_for(duration);

  RunResult result;
  result.lines = farm.merged_event_lines();
  result.cc_requests = cc.requests();
  result.cross_shard_messages = farm.cross_shard_frames();
  return result;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

TEST(ShardedFarm, SerialAndParallelStreamsAreBitIdentical) {
  constexpr std::uint64_t kSeed = 0x5EED01;
  const auto duration = util::seconds(90);
  const RunResult first = run_spam_farm(kSeed, 4, duration);

  // The workload actually exercised what the gate claims to cover:
  // events flowed, remote shards reached the shard-0 C&C, and frames
  // crossed the bridges.
  ASSERT_FALSE(first.lines.empty());
  EXPECT_GT(first.cc_requests, 0u);
  EXPECT_GT(first.cross_shard_messages, 0u);

  const RunResult rerun = run_spam_farm(kSeed, 4, duration);
  EXPECT_EQ(rerun.cc_requests, first.cc_requests);
  EXPECT_EQ(rerun.cross_shard_messages, first.cross_shard_messages);
  ASSERT_EQ(joined(rerun.lines), joined(first.lines))
      << "observable stream diverged across same-seed reruns";
}

TEST(ShardedFarm, DistinctSeedsProvablyDiverge) {
  const auto duration = util::seconds(90);
  const RunResult a = run_spam_farm(0x5EED01, 2, duration);
  const RunResult b = run_spam_farm(0x0DD5EE, 2, duration);
  ASSERT_FALSE(a.lines.empty());
  ASSERT_FALSE(b.lines.empty());
  // Without this, SerialAndParallelStreamsAreBitIdentical could pass
  // vacuously on a stream that ignores the seed entirely.
  EXPECT_NE(joined(a.lines), joined(b.lines));
}

TEST(ShardedFarm, TeardownMidFlightDropsCrossThreadClosures) {
  // Stop inside the spam cadence: TCP handshakes, retransmit timers,
  // and frames in flight between shards are all live when the farm
  // dies. The assertion is the absence of use-after-free — this test
  // exists to run under asan.
  core::ShardedFarmOptions options;
  options.shards = 3;
  options.seed = 0x7EAF;
  auto farm =
      std::make_unique<core::ShardedFarm>(options, build_spam_shard);
  auto& cc_host = farm->shard(0).add_external_host("cc", kCcAddr);
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());
  // 35s = just past the 25s VM boot: DHCP binds done, auto-infection
  // and the first C&C polls/spam flows mid-handshake.
  farm->run_for(util::seconds(35));
  EXPECT_GT(farm->event_count(), 0u);
  EXPECT_GT(farm->cross_shard_frames(), 0u);
  farm.reset();
}

TEST(ShardedFarm, TeardownWithoutRunning) {
  core::ShardedFarmOptions options;
  options.shards = 2;
  core::ShardedFarm farm(options, build_spam_shard);
  // Builders scheduled power-on and DHCP closures that never run.
}

}  // namespace
}  // namespace gq

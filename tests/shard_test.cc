// Determinism gates for sharded farm execution (DESIGN.md §12): for a
// fixed seed, the merged observable event stream (obs::format_event
// lines across all shards) is byte-identical across reruns, and two
// different seeds provably diverge, so "identical" is not "empty or
// constant". A teardown test covers the sharded incarnation of the
// use-after-free class: destroying the farm mid-flight, with
// cross-shard frames parked in mailboxes and pending closures on every
// shard loop. The LockstepCoordinator cases pin the barrier schedule on
// hand-built loops: idle epochs are stepped over without a barrier, the
// epoch grid never moves, and the critical-path count is the
// per-barrier maximum.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sharded_farm.h"
#include "extnet/extnet.h"
#include "malware/spambot.h"
#include "netsim/lockstep.h"
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
  result.cross_shard_messages = farm.lockstep_stats().messages;
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
  // and bridged frames handed over at the last barrier but not yet
  // arrived are all live when the farm dies. The assertion is the
  // absence of use-after-free — this test exists to run under asan.
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
  EXPECT_GT(farm->lockstep_stats().messages, 0u);
  farm.reset();
}

TEST(ShardedFarm, TeardownWithoutRunning) {
  core::ShardedFarmOptions options;
  options.shards = 2;
  core::ShardedFarm farm(options, build_spam_shard);
  // Builders scheduled power-on and DHCP closures that never run.
}

// Two loops bridged twice: a 10 ms link that sets the epoch (so epochs
// end on a 10 ms grid) and a 500 ms link whose frames cross a long idle
// stretch.
struct TwoDomains {
  TwoDomains() {
    coord.add_domain(a);
    coord.add_domain(b);
    coord.bridge(0, a_fast, 1, b_fast, util::milliseconds(10));
    coord.bridge(0, a_slow, 1, b_slow, util::milliseconds(500));
  }
  sim::EventLoop a;
  sim::EventLoop b;
  sim::Port a_fast{a, "a_fast"};
  sim::Port b_fast{b, "b_fast"};
  sim::Port a_slow{a, "a_slow"};
  sim::Port b_slow{b, "b_slow"};
  sim::LockstepCoordinator coord;  // Last member: detaches bridges first.
};

util::TimePoint at_us(std::int64_t usec) { return util::TimePoint{usec}; }

// The parameter is the number of equal run_until() calls that cover the
// first second; each call ends on the 10 ms grid, so the schedule, the
// stats and every delivery time must not depend on it. The instance
// names (Threads/.../t1, t2) are the ones these cases carried when the
// parameter was the coordinator's worker-thread count.
class LockstepCoordinator : public ::testing::TestWithParam<unsigned> {
 protected:
  void run_first_second(TwoDomains& d) {
    const std::int64_t slices = GetParam();
    for (std::int64_t k = 1; k <= slices; ++k) {
      d.coord.run_until(at_us(1'000'000 * k / slices));
      EXPECT_EQ(d.coord.now(), at_us(1'000'000 * k / slices));
    }
  }
};

TEST_P(LockstepCoordinator, BarriersOnlyForEpochsWithAnEventDue) {
  TwoDomains d;
  std::vector<std::int64_t> ran_a;
  std::vector<std::int64_t> ran_b;
  for (std::int64_t us : {5'000, 5'000, 5'000, 500'000}) {
    d.a.schedule_at(at_us(us), [&] { ran_a.push_back(d.a.now().usec); });
  }
  for (std::int64_t us : {7'000, 995'000, 995'000}) {
    d.b.schedule_at(at_us(us), [&] { ran_b.push_back(d.b.now().usec); });
  }
  run_first_second(d);

  // Of the 100 epochs, three have an event due: the one ending at 10 ms
  // (both loops), the one ending at 500 ms (an event on an epoch's end
  // runs in that epoch) and the one ending at 1 s.
  const sim::LockstepStats stats = d.coord.stats();
  EXPECT_EQ(stats.epochs, 3u);
  EXPECT_EQ(stats.epochs_skipped, 97u);
  // Per barrier, the busier loop's events: max(3, 1) + 1 + 2 of 7.
  EXPECT_EQ(stats.events, 7u);
  EXPECT_EQ(stats.critical_path_events, 6u);
  EXPECT_EQ(ran_a,
            (std::vector<std::int64_t>{5'000, 5'000, 5'000, 500'000}));
  EXPECT_EQ(ran_b, (std::vector<std::int64_t>{7'000, 995'000, 995'000}));
  EXPECT_EQ(d.coord.now(), at_us(1'000'000));
  EXPECT_EQ(d.a.now(), at_us(1'000'000));
  EXPECT_EQ(d.b.now(), at_us(1'000'000));
}

TEST_P(LockstepCoordinator, FrameSentBeforeAnIdleStretchArrivesOnTime) {
  TwoDomains d;
  std::vector<std::pair<std::int64_t, std::uint8_t>> got;
  auto record = [&](sim::Frame f) {
    got.emplace_back(d.b.now().usec, f.bytes.at(0));
  };
  d.b_fast.set_rx(record);
  d.b_slow.set_rx(record);
  // Sent in the last microsecond of the first epoch: the fast frame
  // lands in the next epoch, the slow ones after 48 skipped epochs.
  d.a.schedule_at(at_us(9'999), [&] {
    for (std::uint8_t i = 1; i <= 3; ++i) d.a_slow.transmit(sim::Frame{{i}});
    d.a_fast.transmit(sim::Frame{{9}});
  });
  run_first_second(d);

  const std::vector<std::pair<std::int64_t, std::uint8_t>> want = {
      {19'999, 9}, {509'999, 1}, {509'999, 2}, {509'999, 3}};
  EXPECT_EQ(got, want);
  const sim::LockstepStats stats = d.coord.stats();
  EXPECT_EQ(stats.messages, 4u);
  // Barriers at 10 ms (send), 20 ms (fast arrival), 510 ms (slow).
  EXPECT_EQ(stats.epochs, 3u);
  EXPECT_EQ(stats.epochs_skipped, 97u);
}

INSTANTIATE_TEST_SUITE_P(Threads, LockstepCoordinator,
                         ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gq

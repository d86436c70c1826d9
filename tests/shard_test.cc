// Serial-vs-parallel differential gates for sharded farm execution
// (DESIGN.md §12). The tentpole claim is that the lockstep coordinator
// makes worker threading invisible: for a fixed seed, the merged
// observable event stream (obs::format_event lines across all shards)
// is byte-identical whether the shards run inline on one thread or on a
// pool — and two different seeds provably diverge, so "identical" is
// not "empty or constant". A teardown test covers the multi-threaded
// incarnation of the PR 3 use-after-free class: destroying the farm
// mid-flight, with cross-shard frames parked in mailboxes and pending
// closures on every shard loop. The LockstepCoordinator cases pin the
// barrier schedule on hand-built loops: idle epochs are stepped over
// without a barrier, the epoch grid never moves, and the critical-path
// count is the per-barrier maximum.
#include <gtest/gtest.h>

#include <chrono>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
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
  unsigned effective_threads = 0;
};

RunResult run_spam_farm(std::uint64_t seed, unsigned threads,
                        std::size_t shards, util::Duration duration) {
  core::ShardedFarmOptions options;
  options.shards = shards;
  options.threads = threads;
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
  result.effective_threads = farm.threads();
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
  const RunResult serial = run_spam_farm(kSeed, 1, 4, duration);

  // The workload actually exercised what the gate claims to cover:
  // events flowed, remote shards reached the shard-0 C&C, and frames
  // crossed the bridges.
  ASSERT_FALSE(serial.lines.empty());
  EXPECT_GT(serial.cc_requests, 0u);
  EXPECT_GT(serial.cross_shard_messages, 0u);

  for (unsigned threads : {2u, 4u}) {
    const RunResult parallel = run_spam_farm(kSeed, threads, 4, duration);
    EXPECT_EQ(parallel.effective_threads, threads);
    EXPECT_EQ(parallel.cc_requests, serial.cc_requests);
    EXPECT_EQ(parallel.cross_shard_messages, serial.cross_shard_messages);
    ASSERT_EQ(joined(parallel.lines), joined(serial.lines))
        << "observable stream diverged at " << threads << " threads";
  }
}

TEST(ShardedFarm, DistinctSeedsProvablyDiverge) {
  const auto duration = util::seconds(90);
  const RunResult a = run_spam_farm(0x5EED01, 1, 2, duration);
  const RunResult b = run_spam_farm(0x0DD5EE, 1, 2, duration);
  ASSERT_FALSE(a.lines.empty());
  ASSERT_FALSE(b.lines.empty());
  // Without this, SerialAndParallelStreamsAreBitIdentical could pass
  // vacuously on a stream that ignores the seed entirely.
  EXPECT_NE(joined(a.lines), joined(b.lines));
}

TEST(ShardedFarm, TeardownMidFlightDropsCrossThreadClosures) {
  // Stop inside the spam cadence: TCP handshakes, retransmit timers,
  // and bridge mailbox frames are all live when the farm dies. The
  // assertion is the absence of use-after-free / data races — this test
  // exists to run under asan and the tsan lane.
  core::ShardedFarmOptions options;
  options.shards = 3;
  options.threads = 2;
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
  farm.reset();
}

TEST(ShardedFarm, TeardownWithoutRunning) {
  core::ShardedFarmOptions options;
  options.shards = 2;
  options.threads = 2;
  core::ShardedFarm farm(options, build_spam_shard);
  // Builders scheduled power-on and DHCP closures that never run.
}

// Two loops bridged twice: a 10 ms link that sets the epoch (so epochs
// end on a 10 ms grid) and a 500 ms link whose frames cross a long idle
// stretch.
struct TwoDomains {
  explicit TwoDomains(unsigned threads) : coord(threads) {
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

class LockstepCoordinator : public ::testing::TestWithParam<unsigned> {};

TEST_P(LockstepCoordinator, BarriersOnlyForEpochsWithAnEventDue) {
  TwoDomains d(GetParam());
  std::vector<std::int64_t> ran_a;
  std::vector<std::int64_t> ran_b;
  for (std::int64_t us : {5'000, 5'000, 5'000, 500'000}) {
    d.a.schedule_at(at_us(us), [&] { ran_a.push_back(d.a.now().usec); });
  }
  for (std::int64_t us : {7'000, 995'000, 995'000}) {
    d.b.schedule_at(at_us(us), [&] { ran_b.push_back(d.b.now().usec); });
  }
  d.coord.run_until(at_us(1'000'000));

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
  TwoDomains d(GetParam());
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
  d.coord.run_until(at_us(1'000'000));

  const std::vector<std::pair<std::int64_t, std::uint8_t>> want = {
      {19'999, 9}, {509'999, 1}, {509'999, 2}, {509'999, 3}};
  EXPECT_EQ(got, want);
  const sim::LockstepStats stats = d.coord.stats();
  EXPECT_EQ(stats.messages, 4u);
  // Barriers at 10 ms (send), 20 ms (fast arrival), 510 ms (slow).
  EXPECT_EQ(stats.epochs, 3u);
  EXPECT_EQ(stats.epochs_skipped, 97u);
}

TEST_P(LockstepCoordinator, WorkersUseNoCpuBetweenRuns) {
  TwoDomains d(GetParam());
  d.a.schedule_at(at_us(5'000), [] {});
  d.b.schedule_at(at_us(5'000), [] {});
  d.coord.run_until(at_us(20'000));
  auto cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  const double before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // A worker that kept spinning would burn ~100 ms here; one that
  // parks after its bounded spin burns at most a few.
  EXPECT_LT(cpu_ms() - before, 40.0);
  d.coord.run_until(at_us(40'000));
  EXPECT_EQ(d.coord.stats().epochs, 1u);
}

// Four chain-bridged loops, every one due in every epoch: each epoch is
// shared out by claims. What each loop saw, and when, must not depend
// on the thread count.
struct ChainTrace {
  std::vector<std::vector<std::pair<std::int64_t, int>>> seen;
  sim::LockstepStats stats;
};

ChainTrace run_busy_chain(unsigned threads) {
  constexpr int kDomains = 4;
  std::vector<std::unique_ptr<sim::EventLoop>> loops;
  std::vector<std::unique_ptr<sim::Port>> left;   // Port i toward i - 1.
  std::vector<std::unique_ptr<sim::Port>> right;  // Port i toward i + 1.
  ChainTrace trace;
  trace.seen.resize(kDomains);
  {
    sim::LockstepCoordinator coord(threads);
    for (int i = 0; i < kDomains; ++i) {
      loops.push_back(std::make_unique<sim::EventLoop>());
      coord.add_domain(*loops[i]);
      left.push_back(std::make_unique<sim::Port>(*loops[i], "left"));
      right.push_back(std::make_unique<sim::Port>(*loops[i], "right"));
    }
    for (int i = 0; i + 1 < kDomains; ++i) {
      coord.bridge(i, *right[i], i + 1, *left[i + 1],
                   util::milliseconds(10));
    }
    for (int i = 0; i < kDomains; ++i) {
      sim::EventLoop& loop = *loops[i];
      auto& seen = trace.seen[i];
      left[i]->set_rx([&loop, &seen](sim::Frame f) {
        seen.emplace_back(loop.now().usec, 1000 + f.bytes.at(0));
      });
      sim::Port& out = *right[i];
      for (int k = 0; k < 100; ++k) {
        loop.schedule_at(at_us(k * 10'000 + i * 1'000 + 1),
                         [&loop, &seen, &out, k] {
                           seen.emplace_back(loop.now().usec, k);
                           out.transmit(
                               sim::Frame{{static_cast<std::uint8_t>(k)}});
                         });
      }
    }
    coord.run_until(at_us(1'000'000));
    trace.stats = coord.stats();
  }
  return trace;
}

TEST(LockstepCoordinatorClaims, BusyEpochsMatchTheSerialRun) {
  const ChainTrace serial = run_busy_chain(1);
  EXPECT_EQ(serial.stats.epochs, 100u);
  EXPECT_EQ(serial.stats.epochs_skipped, 0u);
  EXPECT_EQ(serial.seen[0].size(), 100u);
  EXPECT_EQ(serial.seen[3].size(), 199u);  // 100 ticks, 99 arrivals.
  for (unsigned threads : {2u, 4u}) {
    const ChainTrace parallel = run_busy_chain(threads);
    EXPECT_EQ(parallel.seen, serial.seen) << threads << " threads";
    EXPECT_EQ(parallel.stats.epochs, serial.stats.epochs);
    EXPECT_EQ(parallel.stats.messages, serial.stats.messages);
    EXPECT_EQ(parallel.stats.events, serial.stats.events);
    EXPECT_EQ(parallel.stats.critical_path_events,
              serial.stats.critical_path_events);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, LockstepCoordinator,
                         ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace gq

// Unit tests for src/netsim: event-loop ordering, clock monotonicity and
// cancellation, port links, deterministic link-fault injection, and the
// learning VLAN switch's isolation guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "netsim/event_loop.h"
#include "netsim/fault.h"
#include "netsim/port.h"
#include "netsim/vlan_switch.h"
#include "obs/metrics.h"
#include "packet/frame_view.h"
#include "packet/headers.h"

namespace gq::sim {
namespace {

using util::MacAddr;

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(util::TimePoint{300}, [&] { order.push_back(3); });
  loop.schedule_at(util::TimePoint{100}, [&] { order.push_back(1); });
  loop.schedule_at(util::TimePoint{200}, [&] { order.push_back(2); });
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.events_executed(), 3u);
}

TEST(EventLoop, FifoForEqualTimes) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    loop.schedule_at(util::TimePoint{50}, [&, i] { order.push_back(i); });
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, RunUntilStopsClockAtDeadline) {
  EventLoop loop;
  bool late = false;
  loop.schedule_at(util::TimePoint{1'000'000}, [&] { late = true; });
  loop.run_until(util::TimePoint{500});
  EXPECT_FALSE(late);
  EXPECT_EQ(loop.now().usec, 500);
  loop.run_until(util::TimePoint{2'000'000});
  EXPECT_TRUE(late);
}

TEST(EventLoop, Cancel) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.schedule_in(util::seconds(1), [&] { ran = true; });
  loop.cancel(id);
  loop.run_all();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelBogusIdsKeepsPendingExact) {
  EventLoop loop;
  auto id = loop.schedule_in(util::seconds(1), [] {});
  EXPECT_EQ(loop.pending(), 1u);
  // Unknown ids are not recorded and cannot skew the pending count.
  loop.cancel(id + 100);
  loop.cancel(0);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(loop.pending(), 0u);
  // Cancelling an already-run id is a no-op too (this used to make
  // pending() underflow).
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  loop.schedule_in(util::seconds(1), [] {});
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, CancelledEntryPurgedOnPop) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.schedule_in(util::seconds(1), [&] { ran = true; });
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  loop.cancel(id);  // Double-cancel: second one is a no-op.
  EXPECT_EQ(loop.pending(), 0u);
  loop.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.events_executed(), 0u);
}

TEST(EventLoop, NestedScheduling) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) loop.schedule_in(util::seconds(1), recur);
  };
  loop.schedule_in(util::seconds(1), recur);
  loop.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now().usec, util::seconds(5).usec);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  loop.run_until(util::TimePoint{1000});
  bool ran = false;
  std::int64_t observed_now = -1;
  loop.schedule_at(util::TimePoint{0}, [&] {
    ran = true;
    observed_now = loop.now().usec;
  });
  loop.run_until(util::TimePoint{1001});
  EXPECT_TRUE(ran);
  // The stale event runs *at the current clock*, never in the past: the
  // simulation must not time-travel.
  EXPECT_EQ(observed_now, 1000);
}

TEST(EventLoop, ClockIsMonotoneAcrossMixedScheduling) {
  EventLoop loop;
  std::vector<std::int64_t> observed;
  // Interleave future, equal-time, and already-past schedules; the clock
  // the callbacks observe must never decrease.
  loop.run_until(util::TimePoint{500});
  for (int i = 0; i < 20; ++i) {
    loop.schedule_at(util::TimePoint{i * 37 % 900},
                     [&] { observed.push_back(loop.now().usec); });
  }
  loop.schedule_in(util::microseconds(50), [&] {
    loop.schedule_at(util::TimePoint{0},
                     [&] { observed.push_back(loop.now().usec); });
  });
  loop.run_all();
  ASSERT_FALSE(observed.empty());
  EXPECT_TRUE(std::is_sorted(observed.begin(), observed.end()));
  EXPECT_GE(observed.front(), 500);
}

TEST(EventLoop, DropPendingDestroysWithoutRunning) {
  EventLoop loop;
  int ran = 0;
  // shared_ptr with a counting deleter: drop_pending must destroy the
  // closure (releasing what it owns) without executing it.
  int destroyed = 0;
  auto token = std::shared_ptr<int>(new int(7), [&destroyed](int* p) {
    ++destroyed;
    delete p;
  });
  loop.schedule_in(util::microseconds(10), [&ran, token] { ++ran; });
  token.reset();
  EXPECT_EQ(destroyed, 0);  // The pending closure still owns it.
  loop.drop_pending();
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(loop.pending(), 0u);
  loop.run_all();
  EXPECT_EQ(ran, 0);
}

TEST(EventLoop, DestroyedWithQueuedClosuresRetiresSlotsFirst) {
  // An object owned only by a queued closure cancels its own timer from
  // its destructor. Destroying the loop destroys the closure, so that
  // cancel() runs during ~EventLoop and must find the slot table alive.
  struct SelfCancelling {
    EventLoop* loop = nullptr;
    EventId timer = 0;
    int* destroyed = nullptr;
    ~SelfCancelling() {
      loop->cancel(timer);
      ++*destroyed;
    }
  };
  int destroyed = 0;
  auto loop = std::make_unique<EventLoop>();
  auto owner = std::make_shared<SelfCancelling>();
  owner->loop = loop.get();
  owner->destroyed = &destroyed;
  owner->timer = loop->schedule_in(util::seconds(2), [] {});
  loop->schedule_in(util::seconds(1), [owner] {});
  owner.reset();  // The queued closure now holds the last reference.
  loop.reset();
  EXPECT_EQ(destroyed, 1);
}

// --- Closure lifetime contract ---------------------------------------------
// Where a closure dies is observable: a capture's destructor may cancel
// timers, schedule events or touch devices. These pin the points at which
// captures are released, so the byte-identity gates cannot shift under a
// reworked event core.

TEST(EventLoop, CancelledClosureDiesWhenItsTimePasses) {
  EventLoop loop;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const EventId id =
      loop.schedule_at(util::TimePoint{100}, [token] { FAIL(); });
  token.reset();
  loop.cancel(id);
  EXPECT_EQ(loop.pending(), 0u);
  // cancel() only tombstones: the capture lives until its entry pops.
  EXPECT_FALSE(watch.expired());
  loop.run_until(util::TimePoint{99});
  EXPECT_FALSE(watch.expired());
  loop.run_until(util::TimePoint{100});
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(loop.events_executed(), 0u);
}

TEST(EventLoop, RunClosureDiesBeforeTheNextEventRuns) {
  EventLoop loop;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  bool alive_while_running = false;
  bool dead_at_next_event = false;
  loop.schedule_at(util::TimePoint{10}, [token, &watch, &alive_while_running] {
    alive_while_running = !watch.expired();
  });
  // Same instant, scheduled later: runs in the next step.
  loop.schedule_at(util::TimePoint{10}, [&watch, &dead_at_next_event] {
    dead_at_next_event = watch.expired();
  });
  token.reset();
  loop.run_until(util::TimePoint{10});
  EXPECT_TRUE(alive_while_running);
  EXPECT_TRUE(dead_at_next_event);
}

TEST(EventLoop, ClosuresAndFramesAtOneInstantRunInScheduleOrder) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(50));
  std::vector<int> order;
  b.set_rx([&](Frame f) { order.push_back(f.bytes.at(0)); });
  loop.schedule_at(util::TimePoint{50}, [&] { order.push_back(0); });
  a.transmit(Frame{{1}});
  loop.schedule_at(util::TimePoint{50}, [&] { order.push_back(2); });
  b.schedule_bridged(util::TimePoint{50}, Frame{{3}});
  a.transmit(Frame{{4}});
  loop.schedule_at(util::TimePoint{50}, [&] { order.push_back(5); });
  // An earlier frame scheduled last still runs first.
  b.schedule_bridged(util::TimePoint{49}, Frame{{9}});
  EXPECT_EQ(loop.pending(), 7u);
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{9, 0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(loop.events_executed(), 7u);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, FrameHandlerMayTransmitWhileDelivering) {
  // Each delivery sends the next frame back from inside its handler, so
  // the slot the running delivery just left is reused at once.
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(10));
  std::vector<std::uint8_t> seen;
  auto bounce = [&seen](Port& out) {
    return [&seen, &out](Frame f) {
      seen.push_back(f.bytes.at(0));
      if (f.bytes.at(0) < 6) {
        f.bytes.at(0) += 1;
        f.bytes.resize(f.bytes.size() + 100, 0xab);
        out.transmit(std::move(f));
      }
    };
  };
  a.set_rx(bounce(a));
  b.set_rx(bounce(b));
  a.transmit(Frame{{0}});
  loop.run_all();
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(loop.now().usec, 70);
  EXPECT_EQ(a.rx_frames() + b.rx_frames(), 7u);
}

TEST(EventLoop, FramePendingAtDropPendingIsNeverDelivered) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(50));
  int delivered = 0;
  b.set_rx([&](Frame) { ++delivered; });
  a.transmit(Frame{{1, 2, 3}});
  loop.schedule_in(util::microseconds(10), [] {});
  b.schedule_bridged(util::TimePoint{80}, Frame{{4}});
  EXPECT_EQ(loop.pending(), 3u);
  loop.run_until(util::TimePoint{20});
  EXPECT_EQ(loop.pending(), 2u);
  loop.drop_pending();
  EXPECT_EQ(loop.pending(), 0u);
  loop.run_all();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b.rx_frames(), 0u);
  EXPECT_EQ(loop.events_executed(), 1u);
  // The loop stays usable after a drop.
  a.transmit(Frame{{5}});
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_all();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, FramePendingAtDestructionIsNeverDelivered) {
  auto loop = std::make_unique<EventLoop>();
  Port a(*loop, "a"), b(*loop, "b");
  Port::connect(a, b, util::microseconds(50));
  int delivered = 0;
  b.set_rx([&](Frame) { ++delivered; });
  a.transmit(Frame{std::vector<std::uint8_t>(1460, 7)});
  b.schedule_bridged(util::TimePoint{10}, Frame{{4}});
  EXPECT_EQ(loop->pending(), 2u);
  loop.reset();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(b.rx_frames(), 0u);
}

TEST(Port, DeliversAfterLatency) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(50));
  std::vector<std::uint8_t> got;
  util::TimePoint arrival{};
  b.set_rx([&](Frame f) {
    got = f.bytes;
    arrival = loop.now();
  });
  a.transmit(Frame{{1, 2, 3}});
  loop.run_all();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(arrival.usec, 50);
  EXPECT_EQ(a.tx_frames(), 1u);
  EXPECT_EQ(b.rx_frames(), 1u);
}

TEST(Port, UnconnectedDrops) {
  EventLoop loop;
  Port a(loop, "a");
  a.transmit(Frame{{1}});
  loop.run_all();
  EXPECT_EQ(a.dropped_frames(), 1u);
}

// --- Link-fault injection -------------------------------------------------

// Runs `n` single-byte-tagged frames through a fresh a->b link carrying
// `profile` (seeded with `seed`) and returns the tags in arrival order.
std::vector<std::uint8_t> delivered_tags(const FaultProfile& profile,
                                         std::uint64_t seed, int n) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(100));
  a.set_fault_profile(profile, seed);
  std::vector<std::uint8_t> tags;
  b.set_rx([&](Frame f) { tags.push_back(f.bytes.at(0)); });
  for (int i = 0; i < n; ++i)
    a.transmit(Frame{{static_cast<std::uint8_t>(i)}});
  loop.run_all();
  return tags;
}

TEST(Fault, SameSeedReplaysBitIdentically) {
  FaultProfile profile;
  profile.drop_probability = 0.5;
  profile.jitter_max = util::microseconds(30);
  const auto first = delivered_tags(profile, 42, 200);
  const auto again = delivered_tags(profile, 42, 200);
  EXPECT_EQ(first, again);
  // A different seed draws a different loss pattern (2^-200 odds of a
  // collision over 200 Bernoulli trials).
  const auto other = delivered_tags(profile, 43, 200);
  EXPECT_NE(first, other);
}

TEST(Fault, DropRateTracksProbability) {
  FaultProfile profile;
  profile.drop_probability = 0.25;
  const auto tags = delivered_tags(profile, 7, 2000);
  const auto dropped = 2000 - static_cast<int>(tags.size());
  EXPECT_GT(dropped, 380);  // ~500 expected; generous deterministic bounds.
  EXPECT_LT(dropped, 620);
}

TEST(Fault, DuplicateDeliversExtraCopies) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(100));
  FaultProfile profile;
  profile.duplicate_probability = 1.0;
  a.set_fault_profile(profile, 1);
  int rx = 0;
  b.set_rx([&](Frame) { ++rx; });
  for (int i = 0; i < 10; ++i) a.transmit(Frame{{1, 2, 3}});
  loop.run_all();
  EXPECT_EQ(rx, 20);
  EXPECT_EQ(a.fault_counters().duplicated, 10u);
  EXPECT_EQ(a.fault_counters().dropped, 0u);
}

TEST(Fault, ReorderLetsLaterFramesOvertake) {
  FaultProfile profile;
  profile.reorder_probability = 1.0;
  profile.reorder_window = util::milliseconds(10);
  const auto tags = delivered_tags(profile, 99, 20);
  ASSERT_EQ(tags.size(), 20u);  // Reordering never loses frames.
  auto sorted = tags;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint8_t> identity(20);
  std::iota(identity.begin(), identity.end(), std::uint8_t{0});
  EXPECT_EQ(sorted, identity);  // A permutation of what was sent...
  EXPECT_NE(tags, identity);    // ...that actually overtook somewhere.
}

TEST(Fault, JitterStaysWithinBound) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(100));
  FaultProfile profile;
  profile.jitter_max = util::microseconds(50);
  a.set_fault_profile(profile, 5);
  std::vector<std::int64_t> arrivals;
  b.set_rx([&](Frame) { arrivals.push_back(loop.now().usec); });
  for (int i = 0; i < 100; ++i) a.transmit(Frame{{9}});
  loop.run_all();
  ASSERT_EQ(arrivals.size(), 100u);
  for (const auto at : arrivals) {
    EXPECT_GE(at, 100);
    EXPECT_LE(at, 150);
  }
  EXPECT_GT(a.fault_counters().jittered, 0u);
}

TEST(Fault, FlapSquareWaveKillsLinkOnSchedule) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(10));
  FaultProfile profile;
  profile.flap_period = util::milliseconds(1);   // Down for the final...
  profile.flap_down = util::microseconds(500);   // ...half of each period.
  a.set_fault_profile(profile, 3);
  EXPECT_FALSE(profile.link_down_at(util::TimePoint{100}));
  EXPECT_TRUE(profile.link_down_at(util::TimePoint{700}));
  EXPECT_FALSE(profile.link_down_at(util::TimePoint{1100}));
  int rx = 0;
  b.set_rx([&](Frame) { ++rx; });
  loop.schedule_at(util::TimePoint{100}, [&] { a.transmit(Frame{{1}}); });
  loop.schedule_at(util::TimePoint{700}, [&] { a.transmit(Frame{{2}}); });
  loop.schedule_at(util::TimePoint{1100}, [&] { a.transmit(Frame{{3}}); });
  loop.run_all();
  EXPECT_EQ(rx, 2);  // The t=700 frame died in the down window.
  EXPECT_EQ(a.fault_counters().flap_dropped, 1u);
}

TEST(Fault, SetLossWrapperAndClearFaults) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(10));
  int rx = 0;
  b.set_rx([&](Frame) { ++rx; });
  a.set_loss(1.0, 11);
  a.transmit(Frame{{1}});
  loop.run_all();
  EXPECT_EQ(rx, 0);
  EXPECT_EQ(a.fault_counters().dropped, 1u);
  a.clear_faults();
  EXPECT_FALSE(a.fault_profile().enabled());
  a.transmit(Frame{{2}});
  loop.run_all();
  EXPECT_EQ(rx, 1);
  a.set_loss(0.0, 11);  // Probability 0 keeps the link clean too.
  a.transmit(Frame{{3}});
  loop.run_all();
  EXPECT_EQ(rx, 2);
}

TEST(Fault, CountersMirrorIntoMetricsRegistry) {
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(10));
  obs::MetricsRegistry metrics;
  a.bind_fault_metrics(metrics, "net.fault.a.");
  a.set_loss(1.0, 21);
  b.set_rx([](Frame) {});
  for (int i = 0; i < 4; ++i) a.transmit(Frame{{1}});
  loop.run_all();
  const auto* dropped = metrics.find_counter("net.fault.a.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 4u);
  EXPECT_EQ(a.fault_counters().dropped, 4u);
}

TEST(Fault, IndependentSeedsPerDirection) {
  // The two transmit sides of one link carry independent Rng streams: a
  // shared stream would produce correlated (here: identical) patterns.
  FaultProfile profile;
  profile.drop_probability = 0.5;
  EventLoop loop;
  Port a(loop, "a"), b(loop, "b");
  Port::connect(a, b, util::microseconds(10));
  a.set_fault_profile(profile, 1001);
  b.set_fault_profile(profile, 1002);
  std::vector<std::uint8_t> at_b, at_a;
  a.set_rx([&](Frame f) { at_a.push_back(f.bytes.at(0)); });
  b.set_rx([&](Frame f) { at_b.push_back(f.bytes.at(0)); });
  for (int i = 0; i < 100; ++i) {
    a.transmit(Frame{{static_cast<std::uint8_t>(i)}});
    b.transmit(Frame{{static_cast<std::uint8_t>(i)}});
  }
  loop.run_all();
  EXPECT_NE(at_a, at_b);
}

// --- VLAN switch ----------------------------------------------------------

// A minimum-size IPv4 frame (46 bytes behind the L2 header), tagged when
// `eth.vlan` is set.
Frame ipv4_frame(const pkt::EthHeader& eth) {
  return Frame{pkt::build_ipv4(eth, {}, std::vector<std::uint8_t>(26, 0))};
}

// Builds an untagged unicast/broadcast frame with the given MACs.
Frame make_frame(MacAddr dst, MacAddr src) {
  return ipv4_frame({.dst = dst, .src = src});
}

struct SwitchFixture : ::testing::Test {
  EventLoop loop;
  VlanSwitch sw{loop, "sw", 4};
  Port h0{loop, "h0"}, h1{loop, "h1"}, h2{loop, "h2"}, trunk{loop, "trunk"};
  std::vector<Frame> rx0, rx1, rx2, rx_trunk;

  void SetUp() override {
    Port::connect(h0, sw.port(0), util::microseconds(1));
    Port::connect(h1, sw.port(1), util::microseconds(1));
    Port::connect(h2, sw.port(2), util::microseconds(1));
    Port::connect(trunk, sw.port(3), util::microseconds(1));
    h0.set_rx([&](Frame f) { rx0.push_back(std::move(f)); });
    h1.set_rx([&](Frame f) { rx1.push_back(std::move(f)); });
    h2.set_rx([&](Frame f) { rx2.push_back(std::move(f)); });
    trunk.set_rx([&](Frame f) { rx_trunk.push_back(std::move(f)); });
  }
};

TEST_F(SwitchFixture, FloodsWithinVlanOnly) {
  sw.set_access(0, 10);
  sw.set_access(1, 10);
  sw.set_access(2, 20);
  h0.transmit(make_frame(MacAddr::broadcast(), MacAddr::local(100)));
  loop.run_all();
  EXPECT_EQ(rx1.size(), 1u);   // Same VLAN: sees broadcast.
  EXPECT_EQ(rx2.size(), 0u);   // Different VLAN: isolated.
  EXPECT_EQ(rx0.size(), 0u);   // Never echoed back.
}

TEST_F(SwitchFixture, LearnsAndUnicasts) {
  sw.set_access(0, 10);
  sw.set_access(1, 10);
  sw.set_access(2, 10);
  // h0 announces itself via broadcast; switch learns MAC 100 on port 0.
  h0.transmit(make_frame(MacAddr::broadcast(), MacAddr::local(100)));
  loop.run_all();
  rx1.clear();
  rx2.clear();
  // h1 sends unicast to MAC 100: only h0 receives it.
  h1.transmit(make_frame(MacAddr::local(100), MacAddr::local(101)));
  loop.run_all();
  EXPECT_EQ(rx0.size(), 1u);
  EXPECT_EQ(rx2.size(), 0u);
}

TEST_F(SwitchFixture, TrunkCarriesTaggedFrames) {
  sw.set_access(0, 10);
  sw.set_trunk_all(3);
  h0.transmit(make_frame(MacAddr::broadcast(), MacAddr::local(100)));
  loop.run_all();
  ASSERT_EQ(rx_trunk.size(), 1u);
  auto parsed = pkt::parse_eth(rx_trunk[0].bytes, nullptr);
  ASSERT_TRUE(parsed);
  ASSERT_TRUE(parsed->vlan);
  EXPECT_EQ(*parsed->vlan, 10);  // Tag added on trunk egress.
}

TEST_F(SwitchFixture, TrunkToAccessStripsTag) {
  sw.set_access(0, 10);
  sw.set_trunk_all(3);
  trunk.transmit(ipv4_frame(
      {.dst = MacAddr::broadcast(), .src = MacAddr::local(200), .vlan = 10}));
  loop.run_all();
  ASSERT_EQ(rx0.size(), 1u);
  auto parsed = pkt::parse_eth(rx0[0].bytes, nullptr);
  ASSERT_TRUE(parsed);
  EXPECT_FALSE(parsed->vlan);  // Untagged on access egress.
}

TEST_F(SwitchFixture, SelectiveTrunkFilters) {
  sw.set_access(0, 10);
  sw.set_access(1, 20);
  sw.set_trunk(3, {10});  // Trunk carries only VLAN 10.
  h0.transmit(make_frame(MacAddr::broadcast(), MacAddr::local(100)));
  h1.transmit(make_frame(MacAddr::broadcast(), MacAddr::local(101)));
  loop.run_all();
  EXPECT_EQ(rx_trunk.size(), 1u);  // Only VLAN 10's broadcast.
}

TEST_F(SwitchFixture, UnconfiguredPortDrops) {
  sw.set_access(0, 10);
  h1.transmit(make_frame(MacAddr::broadcast(), MacAddr::local(101)));
  loop.run_all();
  EXPECT_EQ(rx0.size(), 0u);
  EXPECT_GE(sw.dropped_frames(), 1u);
}

TEST_F(SwitchFixture, TaggedFrameOnAccessPortDropped) {
  sw.set_access(0, 10);
  sw.set_access(1, 10);
  h0.transmit(ipv4_frame(
      {.dst = MacAddr::broadcast(), .src = MacAddr::local(100), .vlan = 10}));
  loop.run_all();
  EXPECT_EQ(rx1.size(), 0u);
}

TEST_F(SwitchFixture, LearningIsPerVlan) {
  // The same MAC on two VLANs must not leak unicast across VLANs.
  sw.set_access(0, 10);
  sw.set_access(1, 20);
  sw.set_access(2, 20);
  h0.transmit(make_frame(MacAddr::broadcast(), MacAddr::local(100)));
  loop.run_all();
  // h1 (VLAN 20) sends a unicast to MAC 100, which was learned on VLAN 10
  // only — the frame must flood VLAN 20 (reaching h2), not go to h0.
  rx0.clear();
  h1.transmit(make_frame(MacAddr::local(100), MacAddr::local(101)));
  loop.run_all();
  EXPECT_EQ(rx0.size(), 0u);
  EXPECT_EQ(rx2.size(), 1u);
}

}  // namespace
}  // namespace gq::sim

// Detonation-job orchestrator (DESIGN.md §13): JobSpec parsing, the
// queued → allocated → running → harvested → recycled state machine
// (with cancel, budget-exhaustion, and pool-empty backpressure
// branches), the cross-tenant isolation audit on a recycled inmate
// (post-recycle escape attempt blocked, mirroring the PR 5 post-revert
// regression), golden batch replay from archived traces, and the
// sharded DetonationService differential determinism gate.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "containment/policy.h"
#include "core/farm.h"
#include "core/sharded_farm.h"
#include "orchestrator/job.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/service.h"
#include "trace/replay.h"
#include "trace/tap.h"
#include "util/strings.h"

namespace gq {
namespace {

using util::Ipv4Addr;

// --- JobSpec parsing -------------------------------------------------------

TEST(JobSpec, ParsesCanonicalLineAndRoundTrips) {
  const std::string line =
      "tenant=acme sample=beacon.001 budget_ms=40000 profile=standard";
  const auto spec = orch::JobSpec::parse(line);
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->tenant, "acme");
  EXPECT_EQ(spec->sample, "beacon.001");
  EXPECT_EQ(spec->profile, "standard");
  EXPECT_EQ(spec->budget.usec, 40'000'000);
  EXPECT_EQ(spec->str(), line);
  EXPECT_EQ(orch::JobSpec::parse(spec->str()), spec);
}

TEST(JobSpec, ProfileDefaultsWhenOmitted) {
  const auto spec =
      orch::JobSpec::parse("tenant=t1 sample=worm.exe budget_ms=1");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->profile, orch::kDefaultProfile);
  // Tokens in any order, arbitrary whitespace runs.
  const auto shuffled = orch::JobSpec::parse(
      "  budget_ms=1\tsample=worm.exe   tenant=t1 ");
  EXPECT_EQ(shuffled, spec);
}

TEST(JobSpec, RejectsMalformedLines) {
  const char* bad[] = {
      "",                                           // Empty.
      "tenant=a sample=s",                          // Missing budget.
      "sample=s budget_ms=5",                       // Missing tenant.
      "tenant=a budget_ms=5",                       // Missing sample.
      "tenant=a sample=s budget_ms=0",              // Below kMinBudgetMs.
      "tenant=a sample=s budget_ms=86400001",       // Above kMaxBudgetMs.
      "tenant=a sample=s budget_ms=-5",             // Signed.
      "tenant=a sample=s budget_ms=5x",             // Non-numeric.
      "tenant=a sample=s budget_ms=",               // Empty value.
      "tenant=a sample=s budget_ms=5 budget_ms=6",  // Duplicate key.
      "tenant=a sample=s budget_ms=5 color=red",    // Unknown key.
      "tenant=a sample=s budget_ms=5 junk",         // Bare token.
      "tenant=bad tenant sample=s budget_ms=5",     // (Space splits; junk.)
      "tenant=a$ sample=s budget_ms=5",             // Charset violation.
      "tenant=a sample=s budget_ms=5 profile=p!",   // Charset violation.
      "tenant=a sample=with space budget_ms=5",     // Sample w/ space.
  };
  for (const char* line : bad) {
    EXPECT_FALSE(orch::JobSpec::parse(line).has_value()) << line;
  }
  // Oversized fields are rejected, not truncated.
  const std::string long_tenant(orch::kMaxTenantLen + 1, 'a');
  EXPECT_FALSE(orch::JobSpec::parse("tenant=" + long_tenant +
                                    " sample=s budget_ms=5"));
  const std::string max_tenant(orch::kMaxTenantLen, 'a');
  EXPECT_TRUE(orch::JobSpec::parse("tenant=" + max_tenant +
                                   " sample=s budget_ms=5"));
}

TEST(JobSpec, StateNamesAreStable) {
  EXPECT_STREQ(orch::job_state_name(orch::JobState::kQueued), "queued");
  EXPECT_STREQ(orch::job_state_name(orch::JobState::kRecycled), "recycled");
  EXPECT_STREQ(orch::job_state_name(orch::JobState::kRejected), "rejected");
}

// --- Orchestrator fixture --------------------------------------------------

const Ipv4Addr kWebAddr(93, 184, 216, 34);
constexpr std::uint16_t kWebPort = 80;

// Minimal periodic C&C beacon: connect to the external web host, send a
// ping, close on the echo. Jitter drawn from a forked per-infection Rng
// makes distinct seeds provably diverge (the golden-replay tests depend
// on that being non-vacuous).
class BeaconBehavior : public inm::Behavior {
 public:
  BeaconBehavior(util::Duration interval, util::Rng rng)
      : interval_(interval), rng_(rng) {}

  [[nodiscard]] std::string name() const override { return "beacon"; }

  void start(net::HostStack& host) override {
    host_ = &host;
    running_ = true;
    schedule();
  }

  void stop() override {
    running_ = false;
    conns_.clear();
  }

 private:
  void schedule() {
    const auto jitter = util::microseconds(
        static_cast<std::int64_t>(rng_.below(500'000)));
    host_->loop().schedule_in(interval_ + jitter, guarded([this] {
      if (!running_) return;
      beacon();
      schedule();
    }));
  }

  void beacon() {
    if (!host_->configured()) return;
    auto conn = host_->connect({kWebAddr, kWebPort});
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak] {
      if (auto c = weak.lock()) c->send(std::string_view("beacon ping\r\n"));
    };
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) c->close();
    };
    conns_.push_back(std::move(conn));
  }

  net::HostStack* host_ = nullptr;
  bool running_ = false;
  util::Duration interval_;
  util::Rng rng_;
  std::vector<std::shared_ptr<net::TcpConnection>> conns_;
};

// Slot builder shared by every rig (single-farm, replay, and sharded):
// a catch-all sink, the beacon prototype, and a static forward-all
// containment config — the baseline `default` profile path.
void build_slot(core::Subfarm& sub, std::size_t /*slot*/) {
  sub.add_catchall_sink();
  sub.catalog().register_prototype(
      "beacon.*", [](const std::string&, util::Rng& rng) {
        return std::make_unique<BeaconBehavior>(util::seconds(5),
                                                rng.fork());
      });
  const auto& config = sub.router().config();
  sub.configure_containment(util::format(
      "[VLAN %u-%u]\nDecider = ForwardAll\n", config.vlan_first,
      config.vlan_last));
}

orch::JobSpec make_spec(const std::string& tenant, const std::string& sample,
                        std::int64_t budget_ms,
                        const std::string& profile = orch::kDefaultProfile) {
  orch::JobSpec spec;
  spec.tenant = tenant;
  spec.sample = sample;
  spec.budget = util::milliseconds(budget_ms);
  spec.profile = profile;
  return spec;
}

struct OrchRig {
  std::unique_ptr<core::Farm> farm;
  net::HostStack* web = nullptr;
  int web_accepts = 0;
  std::unique_ptr<orch::Orchestrator> orch;

  explicit OrchRig(std::uint64_t seed, std::size_t slots,
                   bool create_inmates = true, std::size_t max_queue = 0) {
    core::FarmOptions options;
    options.seed = seed;
    // Full-run inmate_rx capture must survive un-evicted (replay source).
    options.trace_archive.segment_bytes = 1 << 20;
    options.trace_archive.max_segments = 16;
    farm = std::make_unique<core::Farm>(options);

    web = &farm->add_external_host("web", kWebAddr);
    web->listen(kWebPort, [this](std::shared_ptr<net::TcpConnection> conn) {
      ++web_accepts;
      std::weak_ptr<net::TcpConnection> weak = conn;
      conn->on_data = [weak](std::span<const std::uint8_t> d) {
        if (auto c = weak.lock()) c->send(d);
      };
    });

    gq::orch::OrchestratorOptions oo;
    oo.pool.slots = slots;
    oo.pool.create_inmates = create_inmates;
    oo.max_queue = max_queue;
    oo.job_archive.segment_bytes = 1 << 20;
    oo.job_archive.max_segments = 16;
    orch = std::make_unique<gq::orch::Orchestrator>(*farm, std::move(oo),
                                                    build_slot);
    orch->register_tenant("acme");
    orch->register_tenant("umbrella");
  }

  // First boot + DHCP for every slot (kVm: 25s boot).
  void warm_up() { farm->run_for(util::minutes(2)); }

  // Step simulated seconds until `done` holds; false on timeout.
  bool run_until(const std::function<bool()>& done, int max_seconds = 900) {
    for (int i = 0; i < max_seconds; ++i) {
      if (done()) return true;
      farm->run_for(util::seconds(1));
    }
    return done();
  }

  bool job_in_state(std::uint64_t id, orch::JobState state) {
    const auto* job = orch->job(id);
    return job != nullptr && job->state == state;
  }

  std::uint64_t gauge(const std::string& name) {
    const auto* g = farm->metrics().find_gauge(name);
    return g ? static_cast<std::uint64_t>(g->value()) : 0;
  }
  std::uint64_t counter(const std::string& name) {
    const auto* c = farm->metrics().find_counter(name);
    return c ? c->value() : 0;
  }
};

// --- State machine ---------------------------------------------------------

TEST(Orchestrator, LifecycleRunsQueuedToRecycled) {
  OrchRig rig(0xA11CEull, /*slots=*/1);
  struct StateEvent {
    std::uint64_t id;
    std::string state;
  };
  std::vector<StateEvent> states;
  rig.farm->telemetry().bus().subscribe(
      obs::FarmEvent::Kind::kJobState, [&](const obs::FarmEvent& e) {
        states.push_back({e.job_id, e.job_state});
      });
  rig.warm_up();
  ASSERT_EQ(rig.orch->pool().available(), 1u);

  const auto id = rig.orch->submit(make_spec("acme", "beacon.001", 30'000));
  ASSERT_TRUE(rig.run_until(
      [&] { return rig.job_in_state(id, orch::JobState::kRecycled); }));

  // Exact transition sequence, in publication order.
  std::vector<std::string> sequence;
  for (const auto& ev : states)
    if (ev.id == id) sequence.push_back(ev.state);
  EXPECT_EQ(sequence,
            (std::vector<std::string>{"queued", "allocated", "running",
                                      "harvested", "recycled"}));

  const auto* job = rig.orch->job(id);
  ASSERT_NE(job, nullptr);
  EXPECT_LE(job->submitted.usec, job->allocated.usec);
  EXPECT_LT(job->allocated.usec, job->harvested.usec);
  EXPECT_LT(job->harvested.usec, job->recycled.usec);
  // The job detonated for real: flows decided, traffic archived, the
  // external host contacted, every verdict a FORWARD.
  EXPECT_GT(job->flows, 0u);
  EXPECT_GT(job->archived_packets, 0u);
  EXPECT_GT(rig.web_accepts, 0);
  ASSERT_EQ(job->verdicts.size(), 1u);
  EXPECT_GT(job->verdicts.at(static_cast<int>(shim::Verdict::kForward)), 0u);
  EXPECT_GT(job->bytes_to_server, 0u);

  // Bookkeeping: orchestrator counters, obs metrics, pool, reporter.
  EXPECT_EQ(rig.orch->jobs_submitted(), 1u);
  EXPECT_EQ(rig.orch->jobs_completed(), 1u);
  EXPECT_EQ(rig.orch->queue_depth(), 0u);
  EXPECT_EQ(rig.counter("orch.jobs_submitted"), 1u);
  EXPECT_EQ(rig.counter("orch.jobs_completed"), 1u);
  EXPECT_EQ(rig.gauge("orch.queue_depth"), 0u);
  EXPECT_EQ(rig.gauge("orch.jobs_running"), 0u);
  const auto* latency = rig.farm->metrics().find_histogram("orch.job_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 1u);
  EXPECT_EQ(rig.orch->pool().total_recycles(), 1u);
  EXPECT_EQ(rig.orch->pool().available(), 1u);
  EXPECT_EQ(rig.farm->reporter().jobs_observed("acme", "recycled"), 1u);
  const auto report = rig.farm->reporter().render(rig.farm->loop().now());
  EXPECT_NE(report.find("Detonation jobs"), std::string::npos);
  EXPECT_NE(report.find("acme"), std::string::npos);
}

TEST(Orchestrator, BudgetExhaustionHarvestsExactlyAtBudget) {
  OrchRig rig(0xB0D9E7ull, /*slots=*/1);
  rig.warm_up();
  const auto id = rig.orch->submit(make_spec("acme", "beacon.001", 12'345));
  ASSERT_TRUE(rig.run_until(
      [&] { return rig.job_in_state(id, orch::JobState::kRecycled); }));
  const auto* job = rig.orch->job(id);
  ASSERT_NE(job, nullptr);
  // The budget timer is armed at allocation; simulated time makes the
  // harvest land on the budget boundary to the microsecond.
  EXPECT_EQ((job->harvested - job->allocated).usec, 12'345'000);
}

TEST(Orchestrator, CancelMidRunRecyclesSlotForNextJob) {
  OrchRig rig(0xCA9CE1ull, /*slots=*/1);
  rig.warm_up();
  // Job A would run for 10 simulated minutes; cancel it 30s in.
  const auto a = rig.orch->submit(make_spec("acme", "beacon.001", 600'000));
  rig.farm->run_for(util::seconds(30));
  ASSERT_TRUE(rig.job_in_state(a, orch::JobState::kRunning));
  EXPECT_TRUE(rig.orch->cancel(a));
  EXPECT_TRUE(rig.job_in_state(a, orch::JobState::kCancelled));
  EXPECT_EQ(rig.orch->pool().slot(0).state, orch::SlotState::kRecycling);
  // Terminal: a second cancel (and one for an unknown id) is refused.
  EXPECT_FALSE(rig.orch->cancel(a));
  EXPECT_FALSE(rig.orch->cancel(999));

  // The slot recycles and serves the next job normally.
  const auto b = rig.orch->submit(make_spec("umbrella", "beacon.002", 20'000));
  ASSERT_TRUE(rig.run_until(
      [&] { return rig.job_in_state(b, orch::JobState::kRecycled); }));
  const auto* cancelled = rig.orch->job(a);
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->state, orch::JobState::kCancelled);
  EXPECT_GT(cancelled->recycled.usec, 0);  // Its slot still recycled.
  EXPECT_GT(cancelled->archived_packets, 0u);  // Partial harvest kept.
  EXPECT_EQ(rig.orch->jobs_cancelled(), 1u);
  EXPECT_EQ(rig.orch->jobs_completed(), 1u);
  EXPECT_EQ(rig.orch->pool().total_recycles(), 2u);
  EXPECT_EQ(rig.counter("orch.jobs_cancelled"), 1u);
}

TEST(Orchestrator, CancelWhileQueuedNeverTouchesASlot) {
  OrchRig rig(0xCA9CE2ull, /*slots=*/1);
  rig.warm_up();
  const auto a = rig.orch->submit(make_spec("acme", "beacon.001", 30'000));
  const auto b = rig.orch->submit(make_spec("umbrella", "beacon.002", 30'000));
  rig.farm->run_for(util::seconds(1));
  ASSERT_TRUE(rig.job_in_state(a, orch::JobState::kRunning));
  ASSERT_TRUE(rig.job_in_state(b, orch::JobState::kQueued));
  EXPECT_TRUE(rig.orch->cancel(b));
  EXPECT_TRUE(rig.job_in_state(b, orch::JobState::kCancelled));
  EXPECT_EQ(rig.orch->queue_depth(), 0u);
  ASSERT_TRUE(rig.run_until(
      [&] { return rig.job_in_state(a, orch::JobState::kRecycled); }));
  const auto* job_b = rig.orch->job(b);
  ASSERT_NE(job_b, nullptr);
  EXPECT_EQ(job_b->vlan, 0);          // Never allocated.
  EXPECT_EQ(job_b->allocated.usec, 0);
  EXPECT_EQ(rig.orch->jobs_completed(), 1u);
  EXPECT_EQ(rig.orch->pool().total_recycles(), 1u);
}

TEST(Orchestrator, PoolEmptyBackpressureRunsJobsSequentially) {
  OrchRig rig(0xBACC9ull, /*slots=*/1);
  rig.warm_up();
  const auto a = rig.orch->submit(make_spec("acme", "beacon.001", 20'000));
  const auto b = rig.orch->submit(make_spec("umbrella", "beacon.002", 20'000));
  const auto c = rig.orch->submit(make_spec("acme", "beacon.003", 20'000));
  rig.farm->run_for(util::seconds(1));
  // One slot: A runs, B and C wait in the queue.
  EXPECT_TRUE(rig.job_in_state(a, orch::JobState::kRunning));
  EXPECT_EQ(rig.orch->queue_depth(), 2u);
  EXPECT_EQ(rig.orch->pool().available(), 0u);
  EXPECT_EQ(rig.gauge("orch.queue_depth"), 2u);

  ASSERT_TRUE(rig.run_until(
      [&] { return rig.orch->jobs_completed() == 3; }));
  const auto* ja = rig.orch->job(a);
  const auto* jb = rig.orch->job(b);
  const auto* jc = rig.orch->job(c);
  ASSERT_TRUE(ja && jb && jc);
  // Strict serialization through the single slot, with a full recycle
  // (revert + reboot) between consecutive jobs.
  EXPECT_GT(jb->allocated.usec, ja->harvested.usec);
  EXPECT_GT(jc->allocated.usec, jb->harvested.usec);
  EXPECT_EQ(rig.orch->pool().total_recycles(), 3u);
  const auto* wait = rig.farm->metrics().find_histogram("orch.queue_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), 3u);
  EXPECT_GT(wait->sum(), 0.0);  // B and C actually waited.
}

TEST(Orchestrator, SubmitValidationRejectsBadTenantProfileAndOverflow) {
  OrchRig rig(0x9E9EC7ull, /*slots=*/1, /*create_inmates=*/true,
              /*max_queue=*/1);
  // No warm-up: the pool is still warming, so accepted jobs stay queued.
  const auto unknown_tenant =
      rig.orch->submit(make_spec("evilcorp", "beacon.001", 1'000));
  EXPECT_TRUE(rig.job_in_state(unknown_tenant, orch::JobState::kRejected));
  const auto unknown_profile =
      rig.orch->submit(make_spec("acme", "beacon.001", 1'000, "nonexistent"));
  EXPECT_TRUE(rig.job_in_state(unknown_profile, orch::JobState::kRejected));

  const auto queued = rig.orch->submit(make_spec("acme", "beacon.001", 1'000));
  EXPECT_TRUE(rig.job_in_state(queued, orch::JobState::kQueued));
  const auto overflow =
      rig.orch->submit(make_spec("acme", "beacon.002", 1'000));
  EXPECT_TRUE(rig.job_in_state(overflow, orch::JobState::kRejected));

  EXPECT_EQ(rig.orch->jobs_rejected(), 3u);
  EXPECT_EQ(rig.orch->jobs_submitted(), 1u);
  EXPECT_EQ(rig.counter("orch.jobs_rejected"), 3u);
  EXPECT_EQ(rig.farm->reporter().jobs_observed("evilcorp", "rejected"), 1u);
}

// --- Cross-tenant isolation audit ------------------------------------------

// Tenant-profile policies for the audit: a permissive tenant whose
// FORWARD verdicts opt into destination-endpoint caching (so the
// verdict cache demonstrably warms), and a lockdown tenant for whom
// everything is denied.
class CachedForwardPolicy : public cs::Policy {
 public:
  CachedForwardPolicy() : cs::Policy("TenantPermissive") {}
  cs::Decision decide(const cs::FlowInfo&) override {
    return cs::Decision::forward().cached(shim::CacheScope::kDstEndpoint,
                                          600'000);
  }
};

class LockdownPolicy : public cs::Policy {
 public:
  LockdownPolicy() : cs::Policy("TenantLockdown") {}
  cs::Decision decide(const cs::FlowInfo&) override {
    return cs::Decision::drop("tenant-isolation");
  }
};

TEST(Orchestrator, CrossTenantAuditOnRecycledInmate) {
  OrchRig rig(0x150A7Eull, /*slots=*/1);
  rig.orch->register_profile("permissive", [](core::Subfarm&) {
    return std::make_shared<CachedForwardPolicy>();
  });
  rig.orch->register_profile("lockdown", [](core::Subfarm&) {
    return std::make_shared<LockdownPolicy>();
  });
  rig.warm_up();
  auto* sub = rig.orch->pool().slot(0).subfarm;
  ASSERT_NE(sub, nullptr);

  // Tenant A (acme, permissive): beacons are forwarded and the verdicts
  // cached against the slot's VLAN.
  const auto a = rig.orch->submit(
      make_spec("acme", "beacon.001", 30'000, "permissive"));
  rig.farm->run_for(util::seconds(20));
  ASSERT_TRUE(rig.job_in_state(a, orch::JobState::kRunning));
  const auto vlan = rig.orch->job(a)->vlan;
  EXPECT_GT(rig.web_accepts, 0);
  EXPECT_GE(sub->router().verdict_cache().size(), 1u);
  ASSERT_NE(sub->router().inmates().by_vlan(vlan), nullptr);

  // Drive to the harvest instant: the recycle must already have flushed
  // the VLAN's cached verdicts and released its NAT binding — no state
  // from tenant A's job survives into the revert window.
  ASSERT_TRUE(rig.run_until(
      [&] { return rig.job_in_state(a, orch::JobState::kHarvested); }));
  EXPECT_EQ(sub->router().verdict_cache().size(), 0u);
  EXPECT_EQ(sub->router().inmates().by_vlan(vlan), nullptr);

  ASSERT_TRUE(rig.run_until(
      [&] { return rig.job_in_state(a, orch::JobState::kRecycled); }));
  // The rebooted inmate DHCPs a fresh binding for the next tenant.
  ASSERT_NE(sub->router().inmates().by_vlan(vlan), nullptr);
  const auto* job_a = rig.orch->job(a);
  const auto a_archived = job_a->archived_packets;
  ASSERT_GT(a_archived, 0u);
  EXPECT_EQ(job_a->verdicts.count(static_cast<int>(shim::Verdict::kDrop)),
            0u);
  const int accepts_after_a = rig.web_accepts;

  // Tenant B (umbrella, lockdown) on the recycled inmate: every escape
  // attempt must be denied at the gateway — the upstream host sees
  // nothing, and no cached FORWARD from tenant A leaks through
  // (mirroring the PR 5 post-revert escape regression).
  const auto b = rig.orch->submit(
      make_spec("umbrella", "beacon.002", 30'000, "lockdown"));
  ASSERT_TRUE(rig.run_until(
      [&] { return rig.job_in_state(b, orch::JobState::kRecycled); }));
  const auto* job_b = rig.orch->job(b);
  ASSERT_NE(job_b, nullptr);
  EXPECT_EQ(rig.web_accepts, accepts_after_a);
  EXPECT_GT(job_b->flows, 0u);
  ASSERT_EQ(job_b->verdicts.size(), 1u);
  EXPECT_GT(job_b->verdicts.at(static_cast<int>(shim::Verdict::kDrop)), 0u);
  EXPECT_EQ(sub->router().verdict_cache().size(), 0u);

  // Archive isolation: B's archive holds only B-window traffic, and
  // nothing was appended to A's archive after its harvest.
  EXPECT_EQ(job_a->archive->packet_count(), a_archived);
  ASSERT_GT(job_b->archived_packets, 0u);
  for (const auto& record : job_b->archive->archive().records()) {
    EXPECT_GE(record.time.usec, job_b->allocated.usec);
    EXPECT_LE(record.time.usec, job_b->harvested.usec);
  }

  EXPECT_EQ(rig.farm->reporter().jobs_observed("acme", "recycled"), 1u);
  EXPECT_EQ(rig.farm->reporter().jobs_observed("umbrella", "recycled"), 1u);
}

// --- Golden batch replay ---------------------------------------------------

constexpr auto kBatchWarm = util::seconds(120);
constexpr auto kBatchRun = util::seconds(360);

struct BatchLog {
  std::vector<std::string> verdict_lines;  // Canonical kFlowVerdict lines.
  std::vector<std::uint8_t> upstream;      // Upstream egress capture.
  std::vector<pkt::PcapRecord> inmate_rx;  // Replay source.
  std::vector<std::array<std::int64_t, 2>> windows;  // [allocated,harvested].
  std::uint64_t completed = 0;
};

// Per-job slice of a verdict-line stream by the job's live window
// (event lines lead with the timestamp in microseconds).
std::vector<std::string> window_slice(
    const std::vector<std::string>& lines,
    const std::array<std::int64_t, 2>& window) {
  std::vector<std::string> out;
  for (const auto& line : lines) {
    const auto usec = std::stoll(line);
    if (usec >= window[0] && usec <= window[1]) out.push_back(line);
  }
  return out;
}

BatchLog record_batch(std::uint64_t seed, bool check_archives) {
  OrchRig rig(seed, /*slots=*/2);
  std::vector<std::string> verdicts;
  rig.farm->telemetry().bus().subscribe(
      obs::FarmEvent::Kind::kFlowVerdict, [&](const obs::FarmEvent& e) {
        verdicts.push_back(obs::format_event(e));
      });
  rig.farm->run_for(kBatchWarm);
  std::vector<std::uint64_t> ids;
  ids.push_back(rig.orch->submit(make_spec("acme", "beacon.001", 20'000)));
  ids.push_back(rig.orch->submit(make_spec("umbrella", "beacon.002", 25'000)));
  // Third job outnumbers the slots: it waits for a recycle, so the
  // replayed stream also covers the backpressure path.
  ids.push_back(rig.orch->submit(make_spec("acme", "beacon.003", 30'000)));
  rig.farm->run_for(kBatchRun);

  BatchLog log;
  log.verdict_lines = std::move(verdicts);
  log.completed = rig.orch->jobs_completed();
  log.upstream = rig.farm->gateway().upstream_trace().contents();
  log.inmate_rx = rig.farm->gateway().inmate_rx_trace().archive().records();

  const std::string dir = util::format("orch_golden_%llu",
                                       static_cast<unsigned long long>(seed));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  for (const auto id : ids) {
    const auto* job = rig.orch->job(id);
    EXPECT_EQ(job->state, orch::JobState::kRecycled) << "job " << id;
    log.windows.push_back({job->allocated.usec, job->harvested.usec});
    if (!check_archives) continue;
    // The archived batch round-trips through the on-disk format and
    // contains only the job's own window.
    EXPECT_GT(job->archived_packets, 0u);
    for (const auto& record : job->archive->archive().records()) {
      EXPECT_GE(record.time.usec, job->allocated.usec);
      EXPECT_LE(record.time.usec, job->harvested.usec);
    }
    const auto subdir = util::format(
        "%s/job-%llu", dir.c_str(), static_cast<unsigned long long>(id));
    EXPECT_TRUE(job->archive->save(subdir));
    auto loaded = trace::load_trace(subdir);
    EXPECT_TRUE(loaded.has_value());
    if (loaded.has_value()) {
      EXPECT_EQ(loaded->contents(), job->archive->contents());
      EXPECT_EQ(loaded->packet_count(), job->archived_packets);
    }
  }
  std::filesystem::remove_all(dir, ec);
  return log;
}

// Replay the recorded inmate ingress into an identically constructed
// but inmate-less rig (trace/replay.h contract: inmates are created
// last, so the construction-time RNG draws all line up). No jobs are
// submitted — the gateway pipeline alone must reproduce the batch.
BatchLog replay_batch(std::uint64_t seed,
                      const std::vector<pkt::PcapRecord>& records) {
  OrchRig rig(seed, /*slots=*/2, /*create_inmates=*/false);
  std::vector<std::string> verdicts;
  rig.farm->telemetry().bus().subscribe(
      obs::FarmEvent::Kind::kFlowVerdict, [&](const obs::FarmEvent& e) {
        verdicts.push_back(obs::format_event(e));
      });
  const auto scheduled = trace::schedule_replay(rig.farm->gateway(), records);
  EXPECT_EQ(scheduled, records.size());
  rig.farm->run_for(kBatchWarm + kBatchRun);

  BatchLog log;
  log.verdict_lines = std::move(verdicts);
  log.upstream = rig.farm->gateway().upstream_trace().contents();
  return log;
}

class OrchestratorReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrchestratorReplay, ArchivedBatchReplaysBitIdentically) {
  const auto seed = GetParam();
  const auto live = record_batch(seed, /*check_archives=*/true);
  ASSERT_EQ(live.completed, 3u);
  ASSERT_FALSE(live.verdict_lines.empty());
  ASSERT_FALSE(live.inmate_rx.empty());

  const auto replayed = replay_batch(seed, live.inmate_rx);
  EXPECT_EQ(replayed.verdict_lines, live.verdict_lines)
      << "verdict event stream diverged";
  EXPECT_EQ(replayed.upstream, live.upstream) << "upstream egress diverged";

  // Per-job verdict events, bit-identical within each job's window.
  for (const auto& window : live.windows) {
    const auto live_slice = window_slice(live.verdict_lines, window);
    const auto replay_slice = window_slice(replayed.verdict_lines, window);
    EXPECT_FALSE(live_slice.empty());
    EXPECT_EQ(replay_slice, live_slice);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrchestratorReplay,
                         ::testing::Values(0xDE70A7Eull, 0xF00DFACEull));

// The two seeds above provably diverge — the golden comparison is not
// vacuously passing on identical streams.
TEST(OrchestratorReplay, DistinctSeedsDiverge) {
  const auto a = record_batch(0xDE70A7Eull, /*check_archives=*/false);
  const auto b = record_batch(0xF00DFACEull, /*check_archives=*/false);
  EXPECT_NE(a.verdict_lines, b.verdict_lines);
}

// --- Sharded DetonationService ---------------------------------------------

struct ServiceResult {
  std::string joined;
  std::uint64_t completed = 0;
};

ServiceResult run_service(std::uint64_t seed) {
  core::ShardedFarmOptions options;
  options.shards = 2;
  options.seed = seed;
  options.trace_archive.segment_bytes = 1 << 20;
  options.trace_archive.max_segments = 16;
  core::ShardedFarm farm(options, [](core::Farm&, std::size_t) {});

  // One web host homed on shard 0; shard 1's inmates reach it across
  // the bridged external segment (the shard_test C&C pattern).
  auto& web = farm.shard(0).add_external_host("web", kWebAddr);
  web.listen(kWebPort, [](std::shared_ptr<net::TcpConnection> conn) {
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_data = [weak](std::span<const std::uint8_t> d) {
      if (auto c = weak.lock()) c->send(d);
    };
  });

  gq::orch::OrchestratorOptions oo;
  oo.pool.slots = 2;
  oo.job_archive.segment_bytes = 1 << 20;
  oo.job_archive.max_segments = 16;
  gq::orch::DetonationService service(farm, oo, build_slot);
  service.register_tenant("acme");
  service.register_tenant("umbrella");
  for (int i = 0; i < 8; ++i) {
    service.submit(make_spec(i % 2 ? "umbrella" : "acme",
                             util::format("beacon.%03d", i),
                             20'000 + 1'000 * i));
  }
  farm.run_for(util::seconds(600));

  ServiceResult result;
  for (const auto& line : farm.merged_event_lines()) {
    result.joined += line;
    result.joined += '\n';
  }
  result.completed = service.jobs_completed();
  return result;
}

// Same-seed reruns of the sharded service give the same stream; a
// distinct seed diverges, so "identical" is not "empty or constant".
TEST(DetonationService, SerialAndParallelStreamsAreBitIdentical) {
  const auto first = run_service(0x5EEDull);
  ASSERT_EQ(first.completed, 8u);
  ASSERT_FALSE(first.joined.empty());

  const auto rerun = run_service(0x5EEDull);
  EXPECT_EQ(rerun.completed, 8u);
  EXPECT_EQ(rerun.joined, first.joined)
      << "job scheduling diverged across same-seed reruns";

  const auto other = run_service(0x0DDBA11ull);
  EXPECT_NE(other.joined, first.joined);
}

}  // namespace
}  // namespace gq

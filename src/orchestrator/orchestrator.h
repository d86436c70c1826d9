// Detonation-job orchestrator (DESIGN.md §13): the API-driven ephemeral
// sandbox layer over one core::Farm. Tenants submit JobSpecs; the
// orchestrator queues them, leases recycled slots from an InmatePool,
// infects the slot inmate with the requested sample (through the slot
// subfarm's BehaviorCatalog), lets it run for the budgeted simulated
// time while mirroring the inmate's raw ingress into a per-job
// trace::TraceTap archive, then harvests a per-job summary and recycles
// the slot. Every life-cycle transition is published as a kJobState
// FarmEvent — part of the canonical observable stream, so job
// scheduling itself is covered by the bit-identical replay gates.
//
// An Orchestrator is shard-affine like everything else that touches a
// Farm. submit()/cancel() are called either from inside the shard's
// loop or between run_for() calls; actual allocation always happens on
// the loop via a scheduled pump.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/farm.h"
#include "orchestrator/job.h"
#include "orchestrator/pool.h"
#include "trace/tap.h"

namespace gq::flowdb {
class Writer;
}

namespace gq::orch {

struct OrchestratorOptions {
  PoolOptions pool;
  /// Submission-queue bound; jobs submitted beyond it are kRejected
  /// (backpressure). 0 = unbounded.
  std::size_t max_queue = 0;
  /// Rotation budget for each per-job trace archive.
  trace::ArchiveConfig job_archive;
};

/// Everything the orchestrator knows about one job. Map-node storage:
/// addresses are stable for the orchestrator's lifetime.
struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::size_t slot = 0;   ///< Valid from kAllocated on.
  std::uint16_t vlan = 0;
  util::TimePoint submitted;
  util::TimePoint allocated;
  util::TimePoint harvested;
  util::TimePoint recycled;
  // Per-job activity, attributed by VLAN while the job runs.
  std::uint64_t flows = 0;
  std::map<int, std::uint64_t> verdicts;  ///< shim::Verdict -> count.
  std::uint64_t bytes_to_server = 0;
  std::uint64_t bytes_to_inmate = 0;
  std::uint64_t archived_packets = 0;
  /// The job's raw-ingress archive (alive until the orchestrator dies,
  /// so tests can replay/inspect without touching disk).
  std::unique_ptr<trace::TraceTap> archive;
  /// True once the job's slot has fully recycled — from then on the
  /// archive is immutable, so incremental FlowDB flushes can take it.
  bool archive_sealed = false;
  /// True once an incremental flush wrote this archive to a segmented
  /// store (jobs finish out of id order, so a high-water id won't do).
  bool flowdb_appended = false;
  sim::EventId budget_timer = 0;

  [[nodiscard]] std::string summary() const;
};

class Orchestrator {
 public:
  /// Builds a policy for a named profile on a slot subfarm; bound over
  /// the slot's full VLAN range when a job with that profile is
  /// allocated. The binding persists until another profile binds — so
  /// pools that mix named profiles with bare kDefaultProfile jobs
  /// should register a "default" factory too (a registered "default"
  /// is re-bound like any other; an unregistered one is a no-op that
  /// keeps the SlotBuilder's static containment config).
  using ProfileFactory =
      std::function<std::shared_ptr<cs::Policy>(core::Subfarm& subfarm)>;

  Orchestrator(core::Farm& farm, OrchestratorOptions options,
               const InmatePool::SlotBuilder& builder);
  ~Orchestrator();

  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  /// Tenants must be registered before their jobs are accepted —
  /// submissions for unknown tenants are kRejected, which is the
  /// submit-level check the fuzz suite drives with arbitrary names.
  void register_tenant(const std::string& name);
  [[nodiscard]] bool tenant_known(const std::string& name) const;

  void register_profile(const std::string& name, ProfileFactory factory);

  /// Submit a job. Always returns a job id; consult job(id)->state for
  /// kRejected (unknown tenant/profile, queue full) vs kQueued.
  std::uint64_t submit(const JobSpec& spec);

  /// Cancel a queued or running job. Queued jobs go straight to
  /// kCancelled; running jobs are harvested early (state kCancelled,
  /// archive intact) and their slot recycles as usual. False if the job
  /// is unknown or already terminal.
  bool cancel(std::uint64_t id);

  /// Append the indexed flows of every job archive not yet flushed
  /// into a FlowDB writer, jobs in id order (deterministic: same batch
  /// → same segment bytes), and mark them flushed. With `sealed_only`
  /// (the live-farm case) only jobs whose slot has fully recycled —
  /// whose archives are immutable — are taken; a final drain pass sets
  /// it false to also snapshot still-running jobs. Returns rows
  /// appended.
  std::size_t append_flowdb(flowdb::Writer& writer, bool sealed_only);

  [[nodiscard]] const JobRecord* job(std::uint64_t id) const;
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t jobs_submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t jobs_completed() const { return completed_; }
  [[nodiscard]] std::uint64_t jobs_rejected() const { return rejected_; }
  [[nodiscard]] std::uint64_t jobs_cancelled() const { return cancelled_; }
  [[nodiscard]] InmatePool& pool() { return pool_; }
  [[nodiscard]] core::Farm& farm() { return farm_; }

 private:
  void pump();
  void allocate(JobRecord& job, PoolSlot& slot);
  void harvest(JobRecord& job, bool cancelled);
  void on_slot_ready(PoolSlot& slot);
  void account_flow(const obs::FarmEvent& event);
  void publish_state(const JobRecord& job);

  core::Farm& farm_;
  OrchestratorOptions options_;
  InmatePool pool_;
  util::Rng rng_;
  std::map<std::string, bool> tenants_;
  std::map<std::string, ProfileFactory> profiles_;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::deque<std::uint64_t> queue_;
  std::map<std::uint16_t, std::uint64_t> vlan_jobs_;   ///< Running jobs.
  std::map<std::size_t, std::uint64_t> recycling_jobs_;  ///< Slot -> job.
  std::uint64_t next_id_ = 1;
  bool pump_scheduled_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t cancelled_ = 0;
  // Instruments (resolved once; see obs/metrics.h contract).
  obs::Counter* submitted_ctr_ = nullptr;
  obs::Counter* completed_ctr_ = nullptr;
  obs::Counter* rejected_ctr_ = nullptr;
  obs::Counter* cancelled_ctr_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* running_gauge_ = nullptr;
  obs::Histogram* job_latency_ = nullptr;
  obs::Histogram* queue_wait_ = nullptr;
  std::optional<obs::EventBus::SubscriptionId> verdict_sub_;
  std::optional<obs::EventBus::SubscriptionId> close_sub_;
};

}  // namespace gq::orch

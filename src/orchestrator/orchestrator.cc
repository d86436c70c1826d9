#include "orchestrator/orchestrator.h"

#include "flowdb/flowdb.h"
#include "util/log.h"
#include "util/strings.h"

namespace gq::orch {

namespace {

constexpr const char* kLog = "orch";

// Job latencies are seconds-to-minutes of simulated time (budgets plus
// revert cycles), far past default_latency_bounds_us(): 1s .. 1h edges.
std::vector<double> job_latency_bounds_us() {
  return {1e6,   5e6,   10e6,   30e6,   60e6,
          120e6, 300e6, 600e6, 1800e6, 3600e6};
}

}  // namespace

std::string JobRecord::summary() const {
  std::string verdict_text;
  for (const auto& [verdict, count] : verdicts) {
    verdict_text += util::format(
        " %s=%llu", shim::verdict_name(static_cast<shim::Verdict>(verdict)),
        static_cast<unsigned long long>(count));
  }
  return util::format(
      "job %llu tenant=%s sample=%s profile=%s state=%s flows=%llu "
      "b2s=%llu b2i=%llu pkts=%llu%s",
      static_cast<unsigned long long>(id), spec.tenant.c_str(),
      spec.sample.c_str(), spec.profile.c_str(), job_state_name(state),
      static_cast<unsigned long long>(flows),
      static_cast<unsigned long long>(bytes_to_server),
      static_cast<unsigned long long>(bytes_to_inmate),
      static_cast<unsigned long long>(archived_packets),
      verdict_text.c_str());
}

Orchestrator::Orchestrator(core::Farm& farm, OrchestratorOptions options,
                           const InmatePool::SlotBuilder& builder)
    : farm_(farm),
      options_(std::move(options)),
      pool_(farm, options_.pool, builder),
      rng_(farm.next_seed()) {
  auto& metrics = farm_.metrics();
  submitted_ctr_ = &metrics.counter("orch.jobs_submitted");
  completed_ctr_ = &metrics.counter("orch.jobs_completed");
  rejected_ctr_ = &metrics.counter("orch.jobs_rejected");
  cancelled_ctr_ = &metrics.counter("orch.jobs_cancelled");
  queue_depth_gauge_ = &metrics.gauge("orch.queue_depth");
  running_gauge_ = &metrics.gauge("orch.jobs_running");
  job_latency_ =
      &metrics.histogram("orch.job_latency_us", job_latency_bounds_us());
  queue_wait_ =
      &metrics.histogram("orch.queue_wait_us", job_latency_bounds_us());

  pool_.set_ready_handler([this](PoolSlot& slot) { on_slot_ready(slot); });
  auto& bus = farm_.telemetry().bus();
  verdict_sub_ = bus.subscribe(
      obs::FarmEvent::Kind::kFlowVerdict,
      [this](const obs::FarmEvent& event) { account_flow(event); });
  close_sub_ = bus.subscribe(
      obs::FarmEvent::Kind::kFlowClose,
      [this](const obs::FarmEvent& event) { account_flow(event); });
}

Orchestrator::~Orchestrator() {
  auto& bus = farm_.telemetry().bus();
  if (verdict_sub_) bus.unsubscribe(*verdict_sub_);
  if (close_sub_) bus.unsubscribe(*close_sub_);
  for (const auto& [vlan, id] : vlan_jobs_) {
    farm_.gateway().clear_vlan_tap(vlan);
    auto it = jobs_.find(id);
    if (it != jobs_.end() && it->second.budget_timer) {
      farm_.loop().cancel(it->second.budget_timer);
    }
  }
}

void Orchestrator::register_tenant(const std::string& name) {
  tenants_[name] = true;
}

bool Orchestrator::tenant_known(const std::string& name) const {
  return tenants_.count(name) > 0;
}

void Orchestrator::register_profile(const std::string& name,
                                    ProfileFactory factory) {
  profiles_[name] = std::move(factory);
}

std::uint64_t Orchestrator::submit(const JobSpec& spec) {
  const std::uint64_t id = next_id_++;
  JobRecord& job = jobs_[id];
  job.id = id;
  job.spec = spec;
  job.submitted = farm_.loop().now();

  const bool profile_ok =
      spec.profile == kDefaultProfile || profiles_.count(spec.profile) > 0;
  const bool queue_ok =
      options_.max_queue == 0 || queue_.size() < options_.max_queue;
  if (!tenant_known(spec.tenant) || !profile_ok || !queue_ok) {
    job.state = JobState::kRejected;
    ++rejected_;
    rejected_ctr_->inc();
    publish_state(job);
    return id;
  }

  ++submitted_;
  submitted_ctr_->inc();
  job.state = JobState::kQueued;
  queue_.push_back(id);
  queue_depth_gauge_->add(1);
  publish_state(job);
  if (!pump_scheduled_) {
    pump_scheduled_ = true;
    farm_.loop().schedule_in(util::microseconds(0), [this] { pump(); });
  }
  return id;
}

void Orchestrator::pump() {
  pump_scheduled_ = false;
  while (!queue_.empty()) {
    PoolSlot* slot = pool_.acquire();
    if (!slot) return;  // Backpressure: resume from on_slot_ready.
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    queue_depth_gauge_->sub(1);
    allocate(jobs_.at(id), *slot);
  }
}

void Orchestrator::allocate(JobRecord& job, PoolSlot& slot) {
  job.state = JobState::kAllocated;
  job.slot = slot.index;
  job.vlan = slot.inmate ? slot.inmate->vlan() : 0;
  job.allocated = farm_.loop().now();
  queue_wait_->observe(
      static_cast<double>((job.allocated - job.submitted).usec));
  publish_state(job);

  // Bind the job's policy profile over the slot's VLAN range, in front
  // of (overriding, not clearing) the SlotBuilder's static containment
  // configuration. The unregistered default binds nothing and keeps the
  // static config — the path the replay rigs depend on.
  auto profile_it = profiles_.find(job.spec.profile);
  if (profile_it != profiles_.end()) {
    const auto& config = slot.subfarm->router().config();
    slot.subfarm->bind_policy_front(config.vlan_first, config.vlan_last,
                                    profile_it->second(*slot.subfarm));
  }

  // Per-job raw-ingress archive: every tagged frame this inmate sends
  // is mirrored here for the job's lifetime. No telemetry handle, so
  // per-job archives add no instruments to the shard's registry.
  job.archive = std::make_unique<trace::TraceTap>(
      util::format("job-%llu", static_cast<unsigned long long>(job.id)),
      options_.job_archive, nullptr);
  // Tenant/job attribution rides on every flow the archive indexes —
  // saved archives and compacted FlowDB stores keep the identity.
  job.archive->set_context(job.spec.tenant, job.id);
  farm_.gateway().set_vlan_tap(job.vlan, job.archive.get());
  vlan_jobs_[job.vlan] = job.id;

  // Detonate: resolve the sample through the slot subfarm's catalog. An
  // unmatched sample yields a null behavior — the inmate idles for the
  // budget, which is a valid (negative-result) detonation.
  if (slot.inmate) {
    auto behavior = slot.subfarm->catalog().factory()(job.spec.sample, rng_);
    slot.inmate->infect_with(std::move(behavior), job.spec.sample);
  }

  job.state = JobState::kRunning;
  running_gauge_->add(1);
  publish_state(job);
  GQ_DEBUG(kLog, "job %llu: running on slot %zu vlan %u",
           static_cast<unsigned long long>(job.id), slot.index, job.vlan);

  job.budget_timer = farm_.loop().schedule_in(job.spec.budget, [this, id = job.id] {
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.state != JobState::kRunning) return;
    it->second.budget_timer = 0;
    harvest(it->second, /*cancelled=*/false);
  });
}

void Orchestrator::harvest(JobRecord& job, bool cancelled) {
  if (job.budget_timer) {
    farm_.loop().cancel(job.budget_timer);
    job.budget_timer = 0;
  }
  PoolSlot& slot = pool_.slot(job.slot);
  // Flows shorter than the router's kFlowTimeout have not emitted
  // kFlowClose yet; fold their live byte counters into the harvest.
  const auto open = slot.subfarm->router().open_flow_bytes(job.vlan);
  job.bytes_to_server += open.to_server;
  job.bytes_to_inmate += open.to_inmate;
  farm_.gateway().clear_vlan_tap(job.vlan);
  vlan_jobs_.erase(job.vlan);
  if (job.archive) job.archived_packets = job.archive->packet_count();
  job.harvested = farm_.loop().now();
  job_latency_->observe(
      static_cast<double>((job.harvested - job.submitted).usec));
  running_gauge_->sub(1);
  job.state = cancelled ? JobState::kCancelled : JobState::kHarvested;
  if (cancelled) {
    ++cancelled_;
    cancelled_ctr_->inc();
  }
  publish_state(job);

  recycling_jobs_[slot.index] = job.id;
  pool_.recycle(slot);
}

void Orchestrator::on_slot_ready(PoolSlot& slot) {
  auto pending = recycling_jobs_.find(slot.index);
  if (pending != recycling_jobs_.end()) {
    JobRecord& job = jobs_.at(pending->second);
    recycling_jobs_.erase(pending);
    job.recycled = farm_.loop().now();
    job.archive_sealed = true;  // The tap stops mirroring on recycle.
    if (job.state == JobState::kHarvested) {
      job.state = JobState::kRecycled;
      ++completed_;
      completed_ctr_->inc();
      publish_state(job);
    }
  }
  pump();
}

void Orchestrator::account_flow(const obs::FarmEvent& event) {
  auto it = vlan_jobs_.find(event.vlan);
  if (it == vlan_jobs_.end()) return;
  JobRecord& job = jobs_.at(it->second);
  if (event.kind == obs::FarmEvent::Kind::kFlowVerdict) {
    ++job.flows;
    ++job.verdicts[static_cast<int>(event.verdict)];
  } else if (event.kind == obs::FarmEvent::Kind::kFlowClose) {
    job.bytes_to_server += event.bytes_to_server;
    job.bytes_to_inmate += event.bytes_to_inmate;
  }
}

void Orchestrator::publish_state(const JobRecord& job) {
  obs::FarmEvent event;
  event.kind = obs::FarmEvent::Kind::kJobState;
  event.time = farm_.loop().now();
  if (job.state != JobState::kQueued && job.state != JobState::kRejected) {
    event.subfarm = pool_.slot(job.slot).subfarm->name();
    event.vlan = job.vlan;
  }
  event.job_id = job.id;
  event.tenant = job.spec.tenant;
  event.job_state = job_state_name(job.state);
  event.sample_name = job.spec.sample;
  event.policy_name = job.spec.profile;
  if (job.state == JobState::kHarvested ||
      job.state == JobState::kCancelled) {
    event.bytes_to_server = job.bytes_to_server;
    event.bytes_to_inmate = job.bytes_to_inmate;
  }
  farm_.telemetry().publish(event);
}

const JobRecord* Orchestrator::job(std::uint64_t id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

std::size_t Orchestrator::append_flowdb(flowdb::Writer& writer,
                                        bool sealed_only) {
  std::size_t rows = 0;
  for (auto& [id, job] : jobs_) {
    if (!job.archive || job.flowdb_appended) continue;
    if (sealed_only && !job.archive_sealed) continue;
    writer.add_tap(*job.archive);
    job.flowdb_appended = true;
    rows += job.archive->index().flow_count();
  }
  return rows;
}

bool Orchestrator::cancel(std::uint64_t id) {
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  JobRecord& job = it->second;
  switch (job.state) {
    case JobState::kQueued: {
      for (auto q = queue_.begin(); q != queue_.end(); ++q) {
        if (*q == id) {
          queue_.erase(q);
          queue_depth_gauge_->sub(1);
          break;
        }
      }
      job.state = JobState::kCancelled;
      ++cancelled_;
      cancelled_ctr_->inc();
      publish_state(job);
      return true;
    }
    case JobState::kAllocated:
    case JobState::kRunning:
      harvest(job, /*cancelled=*/true);
      return true;
    default:
      return false;
  }
}

}  // namespace gq::orch

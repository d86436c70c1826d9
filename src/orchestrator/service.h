// Multi-shard detonation service: one Orchestrator per ShardedFarm
// shard, with deterministic round-robin job placement. This is the
// "millions of users" serving front door — tenants see one submit()
// API; capacity scales with the shard count, and because placement
// depends only on submission order (never on wall-clock or shard load),
// a same-seed rerun of a batch schedules every job identically, which
// is what lets the s3 bench gate bit-identical batch replay.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sharded_farm.h"
#include "orchestrator/orchestrator.h"

namespace gq::orch {

class DetonationService {
 public:
  struct Submission {
    std::size_t shard = 0;
    std::uint64_t job = 0;
  };

  /// Construct after the ShardedFarm, before any run_for. The SlotBuilder
  /// runs once per slot per shard; slot subfarm names get a per-shard
  /// prefix so they stay unique within each shard's gateway.
  DetonationService(core::ShardedFarm& farm, OrchestratorOptions options,
                    const InmatePool::SlotBuilder& builder);

  void register_tenant(const std::string& name);
  void register_profile(const std::string& name,
                        Orchestrator::ProfileFactory factory);

  /// Round-robin submit. The cursor advances on every call — accepted
  /// or rejected — so placement is a pure function of submission order.
  Submission submit(const JobSpec& spec);

  /// Incremental flush into the segmented store at `dir` (created on
  /// first use): every job archive not yet flushed — shards in index
  /// order, jobs in id order — is sealed into ONE new segment. With
  /// `sealed_only` (the live-farm default) only fully recycled jobs
  /// are taken, so the segment content after any run_for() is a
  /// pure function of the batch; a final drain flush passes false to
  /// also snapshot still-running jobs. Zero new jobs appends nothing
  /// (returns 0). Call between run_for() calls; nullopt on I/O error or
  /// a corrupt store dir.
  std::optional<std::size_t> append_flowdb_store(const std::string& dir,
                                                 bool sealed_only = true);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Orchestrator& shard(std::size_t i) { return *shards_.at(i); }

  // Aggregates over all shards.
  [[nodiscard]] std::uint64_t jobs_submitted() const;
  [[nodiscard]] std::uint64_t jobs_completed() const;
  [[nodiscard]] std::uint64_t jobs_rejected() const;
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  std::vector<std::unique_ptr<Orchestrator>> shards_;
  std::size_t next_shard_ = 0;
};

}  // namespace gq::orch

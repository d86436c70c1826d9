#include "orchestrator/service.h"

#include "flowdb/flowdb.h"
#include "flowdb/store.h"
#include "util/strings.h"

namespace gq::orch {

DetonationService::DetonationService(core::ShardedFarm& farm,
                                     OrchestratorOptions options,
                                     const InmatePool::SlotBuilder& builder) {
  shards_.reserve(farm.shard_count());
  for (std::size_t s = 0; s < farm.shard_count(); ++s) {
    OrchestratorOptions shard_options = options;
    shard_options.pool.name_prefix =
        util::format("S%zu%s", s, options.pool.name_prefix.c_str());
    shards_.push_back(std::make_unique<Orchestrator>(
        farm.shard(s), std::move(shard_options), builder));
  }
}

void DetonationService::register_tenant(const std::string& name) {
  for (auto& shard : shards_) shard->register_tenant(name);
}

void DetonationService::register_profile(
    const std::string& name, Orchestrator::ProfileFactory factory) {
  for (auto& shard : shards_) shard->register_profile(name, factory);
}

DetonationService::Submission DetonationService::submit(const JobSpec& spec) {
  const std::size_t shard = next_shard_;
  next_shard_ = (next_shard_ + 1) % shards_.size();
  return {shard, shards_[shard]->submit(spec)};
}

std::optional<std::size_t> DetonationService::append_flowdb_store(
    const std::string& dir, bool sealed_only) {
  auto* metrics = &shards_.front()->farm().metrics();
  auto store = flowdb::SegmentedStore::open(dir, metrics);
  if (!store) return std::nullopt;
  flowdb::Writer writer(metrics);
  std::size_t rows = 0;
  for (const auto& shard : shards_)
    rows += shard->append_flowdb(writer, sealed_only);
  if (rows == 0) return 0;
  if (!store->append_segment(writer)) return std::nullopt;
  return rows;
}

std::uint64_t DetonationService::jobs_submitted() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->jobs_submitted();
  return n;
}

std::uint64_t DetonationService::jobs_completed() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->jobs_completed();
  return n;
}

std::uint64_t DetonationService::jobs_rejected() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->jobs_rejected();
  return n;
}

std::size_t DetonationService::queue_depth() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard->queue_depth();
  return n;
}

}  // namespace gq::orch

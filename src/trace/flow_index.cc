#include "trace/flow_index.h"

namespace gq::trace {

FlowRecord* FlowIndex::lookup(const pkt::FlowKey& key, std::uint16_t vlan) {
  if (auto it = by_key_.find({key, vlan}); it != by_key_.end())
    return &flows_[it->second];
  if (auto it = by_key_.find({key.reversed(), vlan}); it != by_key_.end())
    return &flows_[it->second];
  return nullptr;
}

FlowRecord& FlowIndex::touch(const pkt::FlowKey& key, std::uint16_t vlan,
                             util::TimePoint at, std::size_t frame_bytes,
                             Location loc) {
  FlowRecord* record = lookup(key, vlan);
  if (!record) {
    FlowRecord fresh;
    fresh.key = key;
    fresh.vlan = vlan;
    fresh.first_time = at;
    flows_.push_back(std::move(fresh));
    by_key_[{key, vlan}] = flows_.size() - 1;
    record = &flows_.back();
  }
  ++record->packets;
  record->bytes += frame_bytes;
  record->last_time = at;
  record->locations.push_back(loc);
  return *record;
}

bool FlowIndex::annotate(const pkt::FlowKey& key, std::uint16_t vlan,
                         shim::Verdict verdict,
                         const std::string& policy_name,
                         shim::VerdictSource source) {
  FlowRecord* record = lookup(key, vlan);
  if (!record) return false;
  record->has_verdict = true;
  record->verdict = verdict;
  record->policy_name = policy_name;
  record->verdict_source = source;
  return true;
}

const FlowRecord* FlowIndex::find(const pkt::FlowKey& key,
                                  std::uint16_t vlan) const {
  return const_cast<FlowIndex*>(this)->lookup(key, vlan);
}

void FlowIndex::restore(FlowRecord record) {
  const MapKey map_key{record.key, record.vlan};
  flows_.push_back(std::move(record));
  by_key_[map_key] = flows_.size() - 1;
}

}  // namespace gq::trace

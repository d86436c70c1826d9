// Flow index over a trace archive: maps the (5-tuple, VLAN) of every
// captured TCP/UDP frame to a per-flow record carrying verdict, packet
// and byte counts, first/last timestamps, and the segment+offset
// location of each captured packet — so one flow's packets can be
// extracted from a multi-megabyte archive in O(packets of that flow)
// instead of a full rescan. This is the forensic entry point the paper
// implies for §5.6 trace audits ("which flow was that, and what did the
// containment server decide about it?").
//
// Keys are canonicalized bidirectionally: the first-seen direction of a
// flow becomes its canonical key, and frames of the reverse direction
// fold into the same record.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "packet/frame.h"
#include "shim/shim.h"
#include "trace/archive.h"
#include "util/time.h"

namespace gq::trace {

struct FlowRecord {
  /// Canonical (first-seen direction) key plus the 802.1Q VID the flow
  /// was captured on (0 for untagged captures).
  pkt::FlowKey key;
  std::uint16_t vlan = 0;

  /// Tenant/job attribution, stamped by per-job archives (see
  /// TraceTap::set_context) so saved archives keep the multi-tenant
  /// identity the orchestrator attributed the traffic to. Empty/0 for
  /// unattributed captures (shared taps, pre-attribution archives).
  std::string tenant;
  std::uint64_t job = 0;

  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;  ///< Sum of wire frame sizes.
  util::TimePoint first_time;
  util::TimePoint last_time;

  /// Containment verdict, once the router annotated the flow.
  bool has_verdict = false;
  shim::Verdict verdict = shim::Verdict::kDrop;
  std::string policy_name;
  /// Where the verdict was resolved: containment-server shim round
  /// trip, gateway verdict cache, or compiled in-gateway policy table.
  shim::VerdictSource verdict_source = shim::VerdictSource::kShim;

  /// Archive location of every captured packet, capture order. Entries
  /// pointing into evicted segments stop resolving (extraction skips
  /// them); the counters above still cover the full flow lifetime.
  std::vector<Location> locations;

  friend bool operator==(const FlowRecord&, const FlowRecord&) = default;
};

class FlowIndex {
 public:
  /// Account one captured frame to its flow (created on first sight).
  FlowRecord& touch(const pkt::FlowKey& key, std::uint16_t vlan,
                    util::TimePoint at, std::size_t frame_bytes,
                    Location loc);

  /// Attach a containment verdict to a flow. Returns false when the
  /// flow was never captured (e.g. its packets all predate the index).
  /// `source` records where the verdict was resolved (CS shim round
  /// trip, gateway verdict cache, or compiled policy table).
  bool annotate(const pkt::FlowKey& key, std::uint16_t vlan,
                shim::Verdict verdict, const std::string& policy_name,
                shim::VerdictSource source = shim::VerdictSource::kShim);

  /// Bidirectional lookup: `key` or its reverse. nullptr when unknown.
  [[nodiscard]] const FlowRecord* find(const pkt::FlowKey& key,
                                       std::uint16_t vlan) const;

  /// All flows, in order of first appearance.
  [[nodiscard]] const std::deque<FlowRecord>& flows() const { return flows_; }
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

  /// Re-insert a fully built record (archive loading).
  void restore(FlowRecord record);

 private:
  struct MapKey {
    pkt::FlowKey key;
    std::uint16_t vlan = 0;
    friend constexpr bool operator==(const MapKey&, const MapKey&) = default;
  };
  struct MapKeyHash {
    std::size_t operator()(const MapKey& k) const noexcept {
      return pkt::FlowKeyHash{}(k.key) ^
             pkt::FlowKeyHash::mix(std::uint64_t{k.vlan} + 0x9E37u);
    }
  };

  FlowRecord* lookup(const pkt::FlowKey& key, std::uint16_t vlan);

  // deque: records keep stable addresses as the index grows.
  std::deque<FlowRecord> flows_;
  std::unordered_map<MapKey, std::size_t, MapKeyHash> by_key_;
};

}  // namespace gq::trace

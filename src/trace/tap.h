// TraceTap: one named capture point — a rotating archiver plus its flow
// index plus `trace.<tap>.*` metrics, bundled so the gateway's record
// sites stay one-liners. Taps exist per subfarm router (inmate-network
// perspective), for the upstream leg, the management leg, and the raw
// inmate-port ingress (the replay source, see trace/replay.h).
//
// A tap can be saved to / loaded from a directory (format `gq-trace 2`):
//   manifest.txt              archive config, counters, segment table
//   segment-<seq>.pcap        one standard pcap file per retained segment
//   flows/                    the flow index: a one-segment FlowDB store
//                             (flowdb/store.h), so `gq_trace query|stat
//                             <archive>/flows` reads it directly
// Loads fail closed: another manifest version, a segment name other
// than segment-<seq>.pcap, a number that does not parse, a missing or
// invalid flow store, or a row flowdb::record_from rejects all return
// nullopt. Saved archives are what examples/gq_trace lists, summarises,
// and extracts flows from, and what the golden-trace replay regression
// feeds back through a fresh farm.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/telemetry.h"
#include "packet/pcap.h"
#include "trace/archive.h"
#include "trace/flow_index.h"
#include "util/time.h"

namespace gq::trace {

class TraceTap {
 public:
  /// `telemetry` may be null (standalone tools/tests): metrics updates
  /// are skipped, capture behaves identically. Metric names:
  ///   trace.<name>.segments   gauge    retained segment count
  ///   trace.<name>.bytes      gauge    retained archive bytes
  ///   trace.<name>.evicted    counter  segments evicted by rotation
  ///   trace.<name>.packets    counter  packets captured (lifetime)
  TraceTap(std::string name, ArchiveConfig config,
           obs::Telemetry* telemetry);

  TraceTap(const TraceTap&) = delete;
  TraceTap& operator=(const TraceTap&) = delete;
  TraceTap(TraceTap&&) = default;
  TraceTap& operator=(TraceTap&&) = default;

  /// Capture one frame: archive it, index it by flow when it parses as
  /// a TCP/UDP frame (tagged or untagged), update metrics. `vlan_hint`
  /// is the VLAN to index an *untagged* frame under — record sites that
  /// capture post-strip (the subfarm taps) know the VLAN even though
  /// the archived bytes no longer carry it; a tagged frame's own tag
  /// always wins.
  void record(util::TimePoint at, std::span<const std::uint8_t> frame,
              std::uint16_t vlan_hint = 0);

  /// Attach a containment verdict to an indexed flow. `source` records
  /// where the verdict was resolved — a containment-server shim round
  /// trip, the gateway's verdict cache, or the compiled policy table.
  bool annotate(const pkt::FlowKey& key, std::uint16_t vlan,
                shim::Verdict verdict, const std::string& policy_name,
                shim::VerdictSource source = shim::VerdictSource::kShim);

  /// Attach tenant/job attribution: flows indexed from now on are
  /// stamped with this identity (already-stamped records keep theirs),
  /// and save() carries it in the manifest. The orchestrator sets this
  /// on each per-job archive at allocation, so saved archives — and the
  /// FlowDB stores compacted from them — keep multi-tenant identity.
  void set_context(std::string tenant, std::uint64_t job) {
    tenant_ = std::move(tenant);
    job_ = job;
  }
  [[nodiscard]] const std::string& tenant() const { return tenant_; }
  [[nodiscard]] std::uint64_t job() const { return job_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const TraceArchiver& archive() const { return archive_; }
  [[nodiscard]] const FlowIndex& index() const { return index_; }

  /// Lifetime packet count (compatible with the old PcapWriter
  /// accounting — rotation does not make it go backwards).
  [[nodiscard]] std::size_t packet_count() const {
    return static_cast<std::size_t>(archive_.total_packets());
  }

  /// The retained capture as one valid pcap file.
  [[nodiscard]] std::vector<std::uint8_t> contents() const {
    return archive_.contents();
  }

  /// O(flow) packet extraction: resolve each of the flow's recorded
  /// locations, skipping those rotated out of the archive.
  [[nodiscard]] std::vector<pkt::PcapRecord> extract_flow(
      const FlowRecord& flow) const;

  /// Persist to `dir` (created if missing): the flow store, then the
  /// pcap segments, then the manifest. Saving into a directory that
  /// already holds an archive replaces it. Returns false on I/O error.
  bool save(const std::string& dir) const;

 private:
  friend std::optional<TraceTap> load_trace(const std::string& dir);

  void refresh_metrics();

  std::string name_;
  std::string tenant_;       ///< Empty = unattributed (shared tap).
  std::uint64_t job_ = 0;    ///< 0 = unattributed.
  TraceArchiver archive_;
  FlowIndex index_;
  std::vector<std::uint8_t> scratch_;  ///< FrameView needs mutable bytes.
  obs::Gauge* segments_gauge_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Counter* evicted_ctr_ = nullptr;
  obs::Counter* packets_ctr_ = nullptr;
  std::uint64_t reported_evicted_ = 0;
};

/// Load a tap saved with TraceTap::save. The loaded tap has no
/// telemetry attached. nullopt on missing/corrupt archive.
std::optional<TraceTap> load_trace(const std::string& dir);

}  // namespace gq::trace

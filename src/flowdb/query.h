// FlowDB query vocabulary: composable predicates, scan options and
// statistics, zone-map planner predicates, and aggregation buckets
// (DESIGN.md §14). SegmentedReader (flowdb/store.h) is the one query
// engine that runs them.
//
// A scan walks each surviving segment in fixed kScanChunk-row chunks,
// in (segment, chunk) order, so matches come out as ascending global
// row ids. Pruning skips segments and chunks but never changes the
// result: flowdb_test and the s7 bench assert byte-identity with
// pruning off.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "flowdb/flowdb.h"
#include "obs/metrics.h"
#include "packet/frame.h"
#include "util/addr.h"

namespace gq::flowdb {

// kScanChunk lives in flowdb.h (the chunk grid is part of the file
// format: one ChunkZone per kScanChunk rows).

/// A conjunction of optional predicates; unset fields match everything.
/// String fields are compiled to dictionary ids once per scan — a name
/// absent from the store's dictionary matches nothing, it is not an
/// error.
struct Filter {
  /// Raw verdict column value: 0 = never annotated, else shim::Verdict.
  std::optional<std::uint8_t> verdict;
  /// shim::VerdictSource of annotated flows.
  std::optional<std::uint8_t> source;
  std::optional<std::string> tenant;
  std::optional<std::string> policy;
  std::optional<std::string> tap;
  std::optional<std::uint64_t> job;
  std::optional<std::uint16_t> vlan;
  std::optional<pkt::FlowProto> proto;
  /// Exact endpoint address, source OR destination side.
  std::optional<util::Ipv4Addr> endpoint;
  /// Prefix containment, source OR destination side.
  std::optional<util::Ipv4Net> prefix;
  /// Port match, source OR destination side.
  std::optional<std::uint16_t> port;
  /// Time-window overlap: match flows with last >= since and
  /// first <= until (either bound may be unset).
  std::optional<std::int64_t> since_usec;
  std::optional<std::int64_t> until_usec;
};

/// What a (possibly pruned) scan actually touched. Filled by
/// SegmentedReader::scan() when ScanOptions::stats is set; `gq_trace
/// query`/`stat` print these, and add_to() publishes them.
struct ScanStats {
  std::uint64_t segments_considered = 0;
  std::uint64_t segments_pruned = 0;   ///< Skipped without mapping.
  std::uint64_t segments_scanned = 0;
  std::uint64_t chunks_pruned = 0;     ///< Skipped by ChunkZone time bounds.
  std::uint64_t chunks_scanned = 0;
  std::uint64_t rows_scanned = 0;      ///< Rows actually visited.
  std::uint64_t rows_matched = 0;
  /// Wall time in Reader::open of the segments this scan opened (part
  /// of wall_ms). Zero for segments an earlier call already opened.
  double open_ms = 0.0;
  double wall_ms = 0.0;

  /// Publish one scan: flowdb.scans (+1) and one flowdb.scan.<field>
  /// counter per field above (open_ms as flowdb.scan.open_us; wall_ms
  /// is not published).
  void add_to(obs::MetricsRegistry& metrics) const;
};

struct ScanOptions {
  /// Ignored; the next benchmark PR deletes the perfbench assignments
  /// and then this field.
  unsigned threads = 1;
  /// Zone-map / bloom skip-scans. Pruning never changes results (the
  /// differential suite asserts byte-identity on vs. off); turning it
  /// off exists for that differential and for perf comparison.
  bool prune = true;
  /// When set, filled with what the scan touched and pruned.
  ScanStats* stats = nullptr;
  /// When non-null the scan publishes its ScanStats (see add_to).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Planner predicates: can any row allowed by this zone block satisfy
/// the filter? Conservative — false only when a match is impossible.
[[nodiscard]] bool zone_may_match(const ZoneMap& zone, const Filter& filter);
[[nodiscard]] bool chunk_may_match(const ChunkZone& zone,
                                   const Filter& filter);

enum class GroupBy { kVerdict, kTenant, kPolicy, kTap };

/// One aggregation bucket. Labels: verdict groups use shim verdict
/// names ("none" for unannotated flows); string groups use the
/// dictionary value ("-" for the empty string).
struct Agg {
  std::string label;
  std::uint64_t flows = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const Agg&, const Agg&) = default;
};

}  // namespace gq::flowdb

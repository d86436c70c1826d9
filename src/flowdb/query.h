// FlowDB query engine: composable predicates, a chunked parallel scan,
// aggregation kernels, and the cross-run verdict-distribution diff
// (DESIGN.md §14).
//
// Determinism contract: scan() partitions the store into fixed
// kScanChunk-row chunks, assigns chunk c to thread (c % threads), and
// concatenates per-chunk match lists in chunk order — so the result is
// bit-identical to the serial scan at any thread count. The ctest lane
// (flowdb_smoke) and the s7 bench both assert this at 1/2/4 threads.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

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

/// What a (possibly pruned) scan actually touched. Filled by scan()
/// and SegmentedReader::scan() when ScanOptions::stats is set;
/// `gq_trace query`/`stat` print these and the same values feed the
/// flowdb.scan.* obs counters.
struct ScanStats {
  std::uint64_t segments_considered = 0;
  std::uint64_t segments_pruned = 0;   ///< Skipped without mapping.
  std::uint64_t segments_scanned = 0;
  std::uint64_t chunks_pruned = 0;     ///< Skipped by ChunkZone time bounds.
  std::uint64_t chunks_scanned = 0;
  std::uint64_t rows_scanned = 0;      ///< Rows actually visited.
  std::uint64_t rows_matched = 0;
  /// Wall time in Reader::open of the segments this scan opened (part
  /// of wall_ms). Zero for a single-file scan, whose Reader is opened
  /// by the caller, and for segments an earlier call already opened.
  double open_ms = 0.0;
  double wall_ms = 0.0;

  void add_to(obs::MetricsRegistry& metrics) const;
};

struct ScanOptions {
  /// Worker threads; <= 1 scans serially (same results either way).
  unsigned threads = 1;
  /// Zone-map / bloom skip-scans. Pruning never changes results (the
  /// differential suite asserts byte-identity on vs. off); turning it
  /// off exists for that differential and for perf comparison.
  bool prune = true;
  /// When set, filled with what the scan touched and pruned.
  ScanStats* stats = nullptr;
  /// When non-null the scan publishes
  ///   flowdb.scans         counter  scan() calls
  ///   flowdb.rows_scanned  counter  rows visited
  ///   flowdb.rows_matched  counter  rows matched
  /// plus the flowdb.scan.* counters (see ScanStats; open_ms is
  /// published as flowdb.scan.open_us).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Planner predicates: can any row allowed by this zone block satisfy
/// the filter? Conservative — false only when a match is impossible.
[[nodiscard]] bool zone_may_match(const ZoneMap& zone, const Filter& filter);
[[nodiscard]] bool chunk_may_match(const ChunkZone& zone,
                                   const Filter& filter);

/// Scan the store, returning matching row ids in ascending order.
std::vector<std::uint64_t> scan(const Reader& reader, const Filter& filter,
                                const ScanOptions& options = {});

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

/// Aggregate `rows` (ids from scan()) grouped by `group`, label-sorted.
std::vector<Agg> aggregate(const Reader& reader,
                           std::span<const std::uint64_t> rows,
                           GroupBy group);

/// Aggregate every row of the store.
std::vector<Agg> aggregate_all(const Reader& reader, GroupBy group);

/// Verdict-distribution comparison between two stores — the cross-run
/// regression gate behind `gq_trace diff`. Shares are fractions of each
/// store's total row count; delta is |share_a - share_b|.
struct VerdictDiff {
  struct Entry {
    std::string label;
    std::uint64_t count_a = 0;
    std::uint64_t count_b = 0;
    double share_a = 0.0;
    double share_b = 0.0;
    double delta = 0.0;
  };
  std::vector<Entry> entries;  ///< Label-sorted union of both stores.
  std::uint64_t rows_a = 0;
  std::uint64_t rows_b = 0;
  double max_delta = 0.0;

  /// True when every verdict share moved by at most `tolerance`.
  [[nodiscard]] bool within(double tolerance) const {
    return max_delta <= tolerance;
  }
};

VerdictDiff diff_verdicts(const Reader& a, const Reader& b);

}  // namespace gq::flowdb

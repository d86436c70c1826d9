// Segmented FlowDB store (DESIGN.md §14): a directory holding an
// ordered set of sealed `.fdb` segments plus a `store.manifest` text
// index. The directory is the only store shape: append_segment() is the
// only way `.fdb` bytes reach disk, and SegmentedReader is the only
// way to query them. Live farms append new sealed segments without
// rewriting prior ones; a deterministic size-tiered compactor keeps the segment count
// bounded; and the query planner prunes whole segments against their
// zone-map/bloom tails — read with a ~1 KiB pread, no mmap — before
// touching any column data.
//
// Manifest format (text, one record per line):
//
//   gq-flowdb-store 3
//   segment <file> <rows> <bytes> <footer-hash-hex16> <zone-hash-hex16>
//
// Manifest line order IS store order: global row id = sum of prior
// segment row counts + local row. Two hashes recorded at append time
// pin each segment: the sealed footer hash pins the file's exact
// bytes, and the zone hash (seal_hash over the zone block region) pins
// the skip-scan metadata itself. The planner's cheap tail read
// verifies both, so any post-seal rewrite of the zone block — whether
// footer-resealed or edited in place under the original footer —
// fails the pin before the pruning decision can go wrong; a segment
// that is opened is additionally recompute-verified by the Reader
// (flowdb.h).
//
// Segments and the manifest are written via temp-file + fsync + rename
// (plus a directory fsync), so a crash mid-update can never strand the
// store behind a truncated file. A manifest with any other header line
// (another format version) fails every open and is left as it is;
// nothing in the directory is rewritten.
//
// Determinism contract: append order is caller order; compaction only
// ever merges ADJACENT segments (preserving global row order) and
// picks the pair with the smallest combined row count (ties: earliest
// position), so the same segment sequence always compacts to byte-
// identical segments and manifests — the s3 bench folds this into its
// same-seed rerun store-hash gate.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/query.h"
#include "obs/metrics.h"

namespace gq::flowdb {

inline constexpr const char kManifestName[] = "store.manifest";
/// Default compaction fan-in bound: compact_segments() merges until at
/// most this many segments remain.
inline constexpr std::size_t kDefaultMaxSegments = 8;

struct SegmentInfo {
  std::string file;               ///< Relative name inside the store dir.
  std::uint64_t rows = 0;
  std::uint64_t bytes = 0;        ///< Exact file size.
  std::uint64_t footer_hash = 0;  ///< The segment's sealed footer hash.
  std::uint64_t zone_hash = 0;    ///< seal_hash over the zone block region.

  friend bool operator==(const SegmentInfo&, const SegmentInfo&) = default;
};

struct StoreManifest {
  std::vector<SegmentInfo> segments;

  /// Canonical text form (serialize(parse(x)) == x for valid x).
  [[nodiscard]] std::string serialize() const;
  /// Hardened parse: bad header line, malformed records, hostile file
  /// names, counts out of range, or duplicate names all reject.
  static std::optional<StoreManifest> parse(std::string_view text);

  [[nodiscard]] std::uint64_t total_rows() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
};

/// Writer side of a segmented store: open (or initialise) a directory,
/// append sealed segments, compact. When `metrics` is non-null:
///   flowdb.segments_written    counter  append_segment() successes
///   flowdb.segments_compacted  counter  segments merged away
class SegmentedStore {
 public:
  /// Open an existing store or initialise an empty one. A fresh
  /// manifest is written only when none exists (ENOENT); any other
  /// manifest read failure (EACCES, EIO, ...) fails the open rather
  /// than clobbering a store we merely could not read.
  static std::optional<SegmentedStore> open(
      const std::string& dir, obs::MetricsRegistry* metrics = nullptr);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const StoreManifest& manifest() const { return manifest_; }

  /// Seal `writer` as the next `segment-<seq>.fdb`. Zero rows is a
  /// no-op success (live farms may have nothing new to flush).
  bool append_segment(const Writer& writer);

  /// Deterministic size-tiered compaction: while more than
  /// `max_segments` remain, merge the adjacent pair with the smallest
  /// combined row count (ties: earliest). Byte-deterministic — the
  /// merged segment is a pure function of the input row sequence.
  bool compact_segments(std::size_t max_segments = kDefaultMaxSegments);

 private:
  SegmentedStore() = default;
  bool write_manifest() const;

  std::string dir_;
  StoreManifest manifest_;
  std::uint64_t next_seq_ = 1;
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Query side: plans Filters against per-segment zone maps (read from
/// segment tails at open, without mapping column data), mmaps only
/// surviving segments, and scans their chunks in order, so matches come
/// out in ascending global row order — bit-identical to the pruning-off
/// scan.
///
/// Methods return nullopt on store corruption (a segment that fails
/// validation, including detected zone lies); pruning never silently
/// drops rows.
class SegmentedReader {
 public:
  static std::optional<SegmentedReader> open(const std::string& dir);

  [[nodiscard]] const StoreManifest& manifest() const { return manifest_; }
  [[nodiscard]] std::uint64_t rows() const;
  [[nodiscard]] std::size_t segment_count() const {
    return manifest_.segments.size();
  }
  [[nodiscard]] const ZoneMap& segment_zone(std::size_t i) const {
    return zones_[i];
  }

  /// Matching global row ids, ascending. Lazy-opens only the segments
  /// the planner could not prune.
  [[nodiscard]] std::optional<std::vector<std::uint64_t>> scan(
      const Filter& filter, const ScanOptions& options = {});

  /// Aggregate global row ids grouped by `group`, merged across
  /// segments and label-sorted; aggregate_all() covers every row.
  [[nodiscard]] std::optional<std::vector<Agg>> aggregate(
      std::span<const std::uint64_t> rows, GroupBy group);
  [[nodiscard]] std::optional<std::vector<Agg>> aggregate_all(GroupBy group);

  /// Reconstruct one row by global id (nullopt: out of range or a
  /// segment that fails validation).
  [[nodiscard]] std::optional<Row> row(std::uint64_t global);

  /// Wall time this reader has spent in Reader::open (mmap + full
  /// validation) of its lazily opened segments, over scan(),
  /// aggregate() and row() alike. ScanStats::open_ms is one scan's share.
  [[nodiscard]] double open_ms() const { return open_ms_; }

 private:
  SegmentedReader() = default;
  const Reader* segment_reader(std::size_t i);

  std::string dir_;
  StoreManifest manifest_;
  std::vector<ZoneMap> zones_;
  std::vector<std::uint64_t> bases_;
  std::vector<std::optional<Reader>> readers_;  ///< Lazy mmaps.
  double open_ms_ = 0.0;
};

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

/// nullopt when a segment of either store fails validation.
std::optional<VerdictDiff> diff_verdicts(SegmentedReader& a,
                                         SegmentedReader& b);

}  // namespace gq::flowdb

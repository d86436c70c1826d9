// FlowDB: a versioned, self-describing, columnar flow-record segment
// format (DESIGN.md §14), and the only on-disk form of a flow record: a
// saved TraceTap keeps its flow index as a one-segment store too
// (trace/tap.h, restored through record_from). A `.fdb` segment lays
// the records out as fixed-width columns so an mmap-backed reader can
// answer predicates and aggregations over hundreds of thousands of
// flows at memory bandwidth — the paper's §5.6 trace audits ("which
// flow was that, and what did the CS decide about it?") kept
// interactive at soak/detonation-service volume.
//
// File layout (all integers little-endian host order, every data region
// 8-byte aligned so the reader can hand out typed spans straight over
// the mapping):
//
//   FileHeader            magic, version, row/column counts, offsets
//   ColumnDesc[ncols]     name, element type/size, data offset
//   DictEntry[ndict]      (offset, len) into the string blob
//   LocEntry[nloc]        (segment, offset) archive locations, shared
//   column data           one contiguous fixed-width array per column
//   string blob           dictionary bytes (tenant/policy/tap names)
//   ZoneMap + ChunkZone[] skip-scan metadata (see below)
//   Footer                seal_hash over everything above + end magic
//
// The zone block is a per-file ZoneMap (min/max over
// timestamps, VLANs, ports, packet/byte counters, plus a 1 KiB k=4
// FNV-mixed bloom filter over tenant names and both flow endpoints)
// and one ChunkZone (min/max time) per kScanChunk-row chunk. The query
// planner reads the zone block from a sealed segment's tail — without
// mapping the column data — and skips files/chunks that cannot match a
// Filter. The zone block is pure derived data: the reader recomputes
// it from the columns at validation time and rejects the file on any
// mismatch, so a footer-resealed zone map that lies about its bounds
// is a load-time rejection, never a silently wrong (pruned) answer.
//
// The footer hash makes corruption (truncation, bit rot, a writer that
// died mid-file) a load-time rejection instead of a silent wrong
// answer. Readers accept exactly kVersion: a file of any other version
// is rejected, not converted. The fuzz suite (tests/fuzz_parse_test.cc) sweeps mutated
// stores against the reader with the same reject-or-parse contract as
// the wire codecs.
//
// Writers are append-then-seal: add rows (or whole TraceTap indexes),
// then hand the writer to SegmentedStore::append_segment (flowdb/
// store.h), which seals it into a store directory crash-safely. A
// Reader opens and validates one sealed segment; stores are queried
// through SegmentedReader.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "packet/frame.h"
#include "shim/shim.h"
#include "trace/flow_index.h"
#include "trace/tap.h"

namespace gq::flowdb {

inline constexpr std::uint64_t kMagic = 0x0000314244465147ull;    // "GQFDB1"
inline constexpr std::uint64_t kEndMagic = 0x444E454244465147ull; // "GQFDBEND"
inline constexpr std::uint32_t kVersion = 3;

/// Fixed scan-chunk size (rows): the grid chunk pruning works on, and
/// part of the file format (one ChunkZone per kScanChunk rows).
inline constexpr std::uint64_t kScanChunk = 16384;

/// Bloom filter geometry (ZoneMap::bloom): 1 KiB, k=4, FNV-mixed keys.
inline constexpr std::size_t kBloomBytes = 1024;
inline constexpr std::size_t kBloomBits = kBloomBytes * 8;
inline constexpr unsigned kBloomHashes = 4;

/// Element types a column can carry. The descriptor records both the
/// type and the element size so a reader can skip columns it does not
/// know (forward compatibility) while still validating bounds.
enum class ColumnType : std::uint32_t {
  kU8 = 1,
  kU16 = 2,
  kU32 = 3,
  kU64 = 4,
  kI64 = 5,
};

struct FileHeader {
  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t column_count = 0;
  std::uint64_t row_count = 0;
  std::uint64_t columns_offset = 0;  ///< ColumnDesc array.
  std::uint64_t dict_offset = 0;     ///< DictEntry array.
  std::uint64_t dict_count = 0;
  std::uint64_t blob_offset = 0;     ///< Dictionary string bytes.
  std::uint64_t blob_bytes = 0;
  std::uint64_t loc_offset = 0;      ///< LocEntry array.
  std::uint64_t loc_count = 0;
  std::uint64_t footer_offset = 0;   ///< == file size - 16.
  /// The zone block: ZoneMap + one ChunkZone per kScanChunk rows.
  std::uint64_t zone_offset = 0;
  std::uint64_t zone_bytes = 0;
};
static_assert(sizeof(FileHeader) == 104);

struct ColumnDesc {
  char name[16] = {};        ///< NUL-padded column name.
  std::uint32_t type = 0;    ///< ColumnType.
  std::uint32_t elem_size = 0;
  std::uint64_t offset = 0;  ///< Absolute file offset of the data array.
};
static_assert(sizeof(ColumnDesc) == 32);

struct DictEntry {
  std::uint64_t offset = 0;  ///< Into the blob region.
  std::uint64_t len = 0;
};
static_assert(sizeof(DictEntry) == 16);

/// One archive location (trace::Location, flattened for the store).
struct LocEntry {
  std::uint64_t segment = 0;
  std::uint64_t offset = 0;
};
static_assert(sizeof(LocEntry) == 16);

/// Per-file skip-scan metadata. min/max fields use empty-range
/// sentinels when row_count == 0 (min = type max, max = type
/// min); the planner checks row_count first, so the sentinels are
/// never consulted. The bloom filter carries one key per row tenant
/// name (including the empty string) and one per flow endpoint
/// address, source AND destination side — a strict superset of the
/// dst-endpoint set, so either-side endpoint filters prune safely.
struct ZoneMap {
  std::uint64_t row_count = 0;
  std::int64_t min_first_usec = 0;
  std::int64_t max_last_usec = 0;
  std::uint16_t min_vlan = 0;
  std::uint16_t max_vlan = 0;
  std::uint16_t min_port = 0;  ///< Over both src and dst ports.
  std::uint16_t max_port = 0;
  std::uint64_t min_packets = 0;
  std::uint64_t max_packets = 0;
  std::uint64_t min_bytes = 0;
  std::uint64_t max_bytes = 0;
  std::uint8_t bloom[kBloomBytes] = {};

  friend bool operator==(const ZoneMap&, const ZoneMap&) = default;
};
static_assert(sizeof(ZoneMap) == 64 + kBloomBytes);  // No padding.

/// Per-chunk time bounds: chunk c covers rows [c*kScanChunk, ...).
struct ChunkZone {
  std::int64_t min_first_usec = 0;
  std::int64_t max_last_usec = 0;

  friend bool operator==(const ChunkZone&, const ChunkZone&) = default;
};
static_assert(sizeof(ChunkZone) == 16);

/// Bloom keys are FNV-1a 64 over a domain tag byte plus the value, so
/// tenant names and addresses never collide structurally.
std::uint64_t bloom_key_tenant(std::string_view name);
std::uint64_t bloom_key_endpoint(std::uint32_t addr_value);
/// Set / test the k probe bits derived from `key` by double hashing.
void bloom_add(std::uint8_t* bloom, std::uint64_t key);
[[nodiscard]] bool bloom_may_contain(const std::uint8_t* bloom,
                                     std::uint64_t key);

/// The seal hash: a 64-bit hash over a byte range, word at a time. It
/// is the `.fdb` footer hash and the manifest's zone pin (store.h).
/// Any single-word edit of the input (so any single-byte edit) changes
/// the result. It detects corruption; it is not a cryptographic hash.
std::uint64_t seal_hash(std::span<const std::uint8_t> bytes);

/// One flow record as the store models it: canonical 5-tuple + VLAN,
/// tenant/job identity, verdict + source + policy, counters,
/// timestamps, originating tap, and the archive locations of its
/// packets. `verdict == 0` means "no verdict was ever attached".
struct Row {
  pkt::FlowProto proto = pkt::FlowProto::kTcp;
  util::Endpoint src;
  util::Endpoint dst;
  std::uint16_t vlan = 0;
  std::string tenant;          ///< Empty = no tenant attribution.
  std::uint64_t job = 0;       ///< 0 = no job attribution.
  std::uint8_t verdict = 0;    ///< 0 = none, else shim::Verdict.
  std::uint8_t source = 0;     ///< shim::VerdictSource (when verdict != 0).
  std::string policy;
  std::string tap;             ///< Capture point the flow came from.
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  std::int64_t first_usec = 0;
  std::int64_t last_usec = 0;
  std::vector<trace::Location> locations;

  friend bool operator==(const Row&, const Row&) = default;
};

/// Convert one indexed flow record (its tenant/job fields carried from
/// the archive, see trace/flow_index.h) into a store row.
Row row_from(const trace::FlowRecord& record, std::string_view tap_name);

/// The inverse of row_from (the row's `tap` is dropped): how a saved
/// archive restores its flow index. Reader does not range-check enum
/// columns, so this does: nullopt for a proto other than tcp/udp, or,
/// on a row with a verdict, a verdict outside shim::Verdict or a source
/// outside shim::VerdictSource. record_from(row_from(r, tap)) == r for
/// every record whose verdict fields are default when it has none.
std::optional<trace::FlowRecord> record_from(const Row& row);

/// Columnar writer: accumulate rows, then seal. When `metrics` is
/// non-null the writer publishes
///   flowdb.rows_written      counter  rows sealed by encode()
///   flowdb.bytes_written     counter  encoded segment bytes
class Writer {
 public:
  explicit Writer(obs::MetricsRegistry* metrics = nullptr);

  void add(Row row);
  /// Append every indexed flow of `index` under capture point
  /// `tap_name`.
  void add_index(const trace::FlowIndex& index, std::string_view tap_name);
  /// Append a whole tap's index under the tap's own name.
  void add_tap(const trace::TraceTap& tap);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Seal into the on-disk byte layout (header..footer).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

 private:
  std::vector<Row> rows_;
  obs::MetricsRegistry* metrics_ = nullptr;
};

/// Zero-copy reader over one sealed segment. Columns are handed out as
/// typed spans directly over the underlying bytes (an mmap'd file via
/// open(), or an owned buffer via parse()); nothing is deserialized
/// row-by-row. A Reader is immutable once opened.
class Reader {
 public:
  Reader(Reader&& other) noexcept;
  Reader& operator=(Reader&& other) noexcept;
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;
  ~Reader();

  /// mmap `path` read-only and validate. nullopt on I/O error, bad
  /// magic/version, out-of-bounds offsets, or a footer hash mismatch.
  static std::optional<Reader> open(const std::string& path);

  /// Validate an in-memory store (tests, fuzzing, network transfer).
  /// The reader takes ownership of the buffer.
  static std::optional<Reader> parse(std::vector<std::uint8_t> bytes);

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::uint64_t file_bytes() const { return size_; }

  // Typed column spans, each `rows()` long.
  [[nodiscard]] std::span<const std::uint8_t> proto() const;
  [[nodiscard]] std::span<const std::uint32_t> src_addr() const;
  [[nodiscard]] std::span<const std::uint16_t> src_port() const;
  [[nodiscard]] std::span<const std::uint32_t> dst_addr() const;
  [[nodiscard]] std::span<const std::uint16_t> dst_port() const;
  [[nodiscard]] std::span<const std::uint16_t> vlan() const;
  [[nodiscard]] std::span<const std::uint32_t> tenant() const;
  [[nodiscard]] std::span<const std::uint64_t> job() const;
  [[nodiscard]] std::span<const std::uint8_t> verdict() const;
  [[nodiscard]] std::span<const std::uint8_t> verdict_source() const;
  [[nodiscard]] std::span<const std::uint32_t> policy() const;
  [[nodiscard]] std::span<const std::uint32_t> tap() const;
  [[nodiscard]] std::span<const std::uint64_t> packets() const;
  [[nodiscard]] std::span<const std::uint64_t> bytes() const;
  [[nodiscard]] std::span<const std::int64_t> first_usec() const;
  [[nodiscard]] std::span<const std::int64_t> last_usec() const;
  [[nodiscard]] std::span<const std::uint64_t> loc_start() const;
  [[nodiscard]] std::span<const std::uint32_t> loc_count() const;

  /// String dictionary (tenant/policy/tap names). Id 0 is always the
  /// empty string; out-of-range ids read as empty.
  [[nodiscard]] std::size_t dict_size() const { return dict_count_; }
  [[nodiscard]] std::string_view dict(std::uint32_t id) const;
  /// Reverse lookup, for compiling name predicates once per scan.
  [[nodiscard]] std::optional<std::uint32_t> dict_id(
      std::string_view name) const;

  /// Archive locations of one row's packets (clamped to the shared
  /// location array, so a lying loc_start/loc_count can never over-read).
  [[nodiscard]] std::span<const LocEntry> locations_of(
      std::uint64_t row) const;

  /// Reconstruct one row (operator listings; scans should use the
  /// column spans directly).
  [[nodiscard]] Row row(std::uint64_t index) const;

  /// The validated (recompute-verified) zone block.
  [[nodiscard]] const ZoneMap& zone() const { return *zone_; }
  [[nodiscard]] std::span<const ChunkZone> chunk_zones() const {
    return {chunk_zones_, static_cast<std::size_t>(chunk_count_)};
  }

 private:
  Reader() = default;

  bool validate_and_index();
  void reset() noexcept;

  const std::uint8_t* base_ = nullptr;
  std::uint64_t size_ = 0;
  std::vector<std::uint8_t> owned_;  ///< parse() storage.
  void* map_ = nullptr;              ///< open() storage.
  std::uint64_t map_len_ = 0;

  std::uint64_t rows_ = 0;
  std::uint64_t dict_count_ = 0;
  const DictEntry* dict_entries_ = nullptr;
  const char* blob_ = nullptr;
  std::uint64_t blob_bytes_ = 0;
  const LocEntry* locs_ = nullptr;
  std::uint64_t loc_count_total_ = 0;
  const ZoneMap* zone_ = nullptr;
  const ChunkZone* chunk_zones_ = nullptr;
  std::uint64_t chunk_count_ = 0;
  // Resolved column pointers (validated, aligned).
  const void* cols_[18] = {};
};

}  // namespace gq::flowdb

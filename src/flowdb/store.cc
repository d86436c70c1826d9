#include "flowdb/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <set>

#include "flowdb/scan_impl.h"
#include "util/strings.h"

namespace gq::flowdb {

namespace {

constexpr std::uint64_t kMaxManifestSegments = 100000;
constexpr std::size_t kMaxSegmentName = 200;

/// Segment file names are store-relative and must stay that way: one
/// path component, conservative character set, no dotfiles.
bool valid_segment_name(std::string_view name) {
  if (name.empty() || name.size() > kMaxSegmentName) return false;
  if (name.front() == '.' || name.front() == '-') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return name.find("..") == std::string_view::npos;
}

std::optional<std::uint64_t> parse_hex16(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else
      return std::nullopt;
    value = (value << 4) | digit;
  }
  return value;
}

/// Parse the sequence number out of `segment-<seq>.fdb`; nullopt for
/// names that do not follow the generated pattern.
std::optional<std::uint64_t> segment_seq(std::string_view name) {
  constexpr std::string_view kPrefix = "segment-";
  constexpr std::string_view kSuffix = ".fdb";
  if (name.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (name.substr(0, kPrefix.size()) != kPrefix) return std::nullopt;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix)
    return std::nullopt;
  const auto value = util::parse_int(name.substr(
      kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()));
  if (!value || *value < 0) return std::nullopt;
  return static_cast<std::uint64_t>(*value);
}

/// Read a whole file; on failure `err_out` (when non-null) carries the
/// errno so callers can tell "does not exist" from "could not read".
std::optional<std::string> read_text_file(const std::string& path,
                                          int* err_out = nullptr) {
  if (err_out) *err_out = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (err_out) *err_out = errno;
    return std::nullopt;
  }
  std::string out;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  if (!ok && err_out) *err_out = errno ? errno : EIO;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return out;
}

/// Crash-safe write: `path`.tmp + fsync, then rename over `path` and
/// fsync the parent directory. A crash mid-write leaves either the old
/// file or the new one under the final name, never a truncated hybrid
/// — the manifest (and every sealed segment) stays openable.
bool write_file(const std::string& path, const void* data,
                std::size_t size) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  bool ok = true;
  while (ok && done < size) {
    const ssize_t wrote = ::write(fd, p + done, size - done);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      ok = false;
    } else {
      done += static_cast<std::size_t>(wrote);
    }
  }
  if (ok) ok = ::fsync(fd) == 0;
  if (::close(fd) != 0) ok = false;
  if (ok) ok = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  // Make the rename itself durable (best-effort: some filesystems do
  // not support fsync on a directory fd).
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return true;
}

/// Read a sealed segment's zone block from its tail: the 104-byte
/// header plus the zone region at zone_offset plus the 16-byte footer
/// — no mmap, no column data. The manifest entry pins exact size, the
/// sealed footer hash, AND the zone block's own seal_hash recorded
/// at append time; recomputing the latter over the bytes actually read
/// means an in-place zone edit under the original footer fails here
/// just like a footer-resealed one — the planner can never prune on a
/// lying zone map.
bool read_segment_zone(const std::string& path, const SegmentInfo& info,
                       ZoneMap* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  bool ok = false;
  struct stat st = {};
  FileHeader h;
  do {
    if (::fstat(fd, &st) != 0) break;
    if (static_cast<std::uint64_t>(st.st_size) != info.bytes) break;
    if (info.bytes < sizeof(FileHeader) + sizeof(ZoneMap) + 16) break;
    if (::pread(fd, &h, sizeof h, 0) != static_cast<ssize_t>(sizeof h))
      break;
    if (h.magic != kMagic || h.version != kVersion) break;
    if (h.row_count != info.rows) break;
    if (h.footer_offset != info.bytes - 16) break;
    const std::uint64_t chunks = (info.rows + kScanChunk - 1) / kScanChunk;
    if (h.zone_offset < sizeof(FileHeader) ||
        h.zone_offset > h.footer_offset ||
        h.zone_bytes != sizeof(ZoneMap) + chunks * sizeof(ChunkZone) ||
        h.zone_bytes > h.footer_offset - h.zone_offset)
      break;
    std::uint8_t footer[16];
    if (::pread(fd, footer, 16, static_cast<off_t>(h.footer_offset)) != 16)
      break;
    std::uint64_t stored_hash = 0, end_magic = 0;
    std::memcpy(&stored_hash, footer, 8);
    std::memcpy(&end_magic, footer + 8, 8);
    if (end_magic != kEndMagic || stored_hash != info.footer_hash) break;
    std::vector<std::uint8_t> zone(static_cast<std::size_t>(h.zone_bytes));
    if (::pread(fd, zone.data(), zone.size(),
                static_cast<off_t>(h.zone_offset)) !=
        static_cast<ssize_t>(zone.size()))
      break;
    if (seal_hash(zone) != info.zone_hash) break;
    std::memcpy(out, zone.data(), sizeof(ZoneMap));
    if (out->row_count != info.rows) break;
    ok = true;
  } while (false);
  ::close(fd);
  return ok;
}

/// Manifest record for freshly sealed segment bytes: sizes plus both
/// pins (footer hash from the sealed tail, zone hash recomputed over
/// the zone region the header declares).
SegmentInfo seal_info(std::string file, std::uint64_t rows,
                      const std::vector<std::uint8_t>& bytes) {
  SegmentInfo info;
  info.file = std::move(file);
  info.rows = rows;
  info.bytes = bytes.size();
  std::memcpy(&info.footer_hash, bytes.data() + bytes.size() - 16, 8);
  FileHeader h;
  std::memcpy(&h, bytes.data(), sizeof h);
  info.zone_hash = seal_hash({bytes.data() + h.zone_offset,
                              static_cast<std::size_t>(h.zone_bytes)});
  return info;
}

}  // namespace

// --- StoreManifest --------------------------------------------------------

std::string StoreManifest::serialize() const {
  std::string out = "gq-flowdb-store 3\n";
  for (const SegmentInfo& s : segments) {
    out += util::format("segment %s %llu %llu %016llx %016llx\n",
                        s.file.c_str(),
                        static_cast<unsigned long long>(s.rows),
                        static_cast<unsigned long long>(s.bytes),
                        static_cast<unsigned long long>(s.footer_hash),
                        static_cast<unsigned long long>(s.zone_hash));
  }
  return out;
}

std::optional<StoreManifest> StoreManifest::parse(std::string_view text) {
  const auto lines = util::split(text, '\n');
  if (lines.empty() || util::trim(lines[0]) != "gq-flowdb-store 3")
    return std::nullopt;
  StoreManifest manifest;
  std::set<std::string> seen;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (util::trim(lines[i]).empty()) continue;  // Trailing newline etc.
    const auto fields = util::split_ws(lines[i]);
    if (fields.size() != 6 || fields[0] != "segment") return std::nullopt;
    if (manifest.segments.size() >= kMaxManifestSegments)
      return std::nullopt;
    SegmentInfo info;
    info.file = fields[1];
    if (!valid_segment_name(info.file)) return std::nullopt;
    if (!seen.insert(info.file).second) return std::nullopt;
    const auto rows = util::parse_int(fields[2]);
    const auto bytes = util::parse_int(fields[3]);
    const auto hash = parse_hex16(fields[4]);
    const auto zone_hash = parse_hex16(fields[5]);
    if (!rows || *rows < 0 || !bytes || *bytes < 0 || !hash || !zone_hash)
      return std::nullopt;
    info.rows = static_cast<std::uint64_t>(*rows);
    info.bytes = static_cast<std::uint64_t>(*bytes);
    info.footer_hash = *hash;
    info.zone_hash = *zone_hash;
    manifest.segments.push_back(std::move(info));
  }
  return manifest;
}

std::uint64_t StoreManifest::total_rows() const {
  std::uint64_t total = 0;
  for (const SegmentInfo& s : segments) total += s.rows;
  return total;
}

std::uint64_t StoreManifest::total_bytes() const {
  std::uint64_t total = 0;
  for (const SegmentInfo& s : segments) total += s.bytes;
  return total;
}

// --- SegmentedStore -------------------------------------------------------

std::optional<SegmentedStore> SegmentedStore::open(
    const std::string& dir, obs::MetricsRegistry* metrics) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
    return std::nullopt;
  SegmentedStore store;
  store.dir_ = dir;
  store.metrics_ = metrics;
  const std::string manifest_path = dir + "/" + kManifestName;
  int read_err = 0;
  if (const auto text = read_text_file(manifest_path, &read_err)) {
    auto manifest = StoreManifest::parse(*text);
    if (!manifest) return std::nullopt;
    store.manifest_ = std::move(*manifest);
  } else if (read_err != ENOENT) {
    // EACCES/EMFILE/EIO/...: the store may well exist — initialising a
    // fresh manifest here would orphan every sealed segment.
    return std::nullopt;
  } else if (!store.write_manifest()) {
    return std::nullopt;
  }
  for (const SegmentInfo& s : store.manifest_.segments) {
    if (const auto seq = segment_seq(s.file))
      store.next_seq_ = std::max(store.next_seq_, *seq + 1);
  }
  return store;
}

bool SegmentedStore::write_manifest() const {
  const std::string text = manifest_.serialize();
  return write_file(dir_ + "/" + kManifestName, text.data(), text.size());
}

bool SegmentedStore::append_segment(const Writer& writer) {
  if (writer.row_count() == 0) return true;
  const std::vector<std::uint8_t> bytes = writer.encode();
  SegmentInfo info = seal_info(
      util::format("segment-%06llu.fdb",
                   static_cast<unsigned long long>(next_seq_)),
      writer.row_count(), bytes);
  if (!write_file(dir_ + "/" + info.file, bytes.data(), bytes.size()))
    return false;
  manifest_.segments.push_back(std::move(info));
  if (!write_manifest()) return false;
  ++next_seq_;
  if (metrics_) metrics_->counter("flowdb.segments_written").inc();
  return true;
}

bool SegmentedStore::compact_segments(std::size_t max_segments) {
  if (max_segments == 0) max_segments = 1;
  while (manifest_.segments.size() > max_segments) {
    // Size-tiered pick: the adjacent pair with the fewest combined
    // rows; ties go to the earliest position. Only adjacent pairs ever
    // merge, so global row order is preserved.
    std::size_t best = 0;
    std::uint64_t best_rows = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i + 1 < manifest_.segments.size(); ++i) {
      const std::uint64_t combined =
          manifest_.segments[i].rows + manifest_.segments[i + 1].rows;
      if (combined < best_rows) {
        best_rows = combined;
        best = i;
      }
    }
    const SegmentInfo left = manifest_.segments[best];
    const SegmentInfo right = manifest_.segments[best + 1];
    auto reader_a = Reader::open(dir_ + "/" + left.file);
    auto reader_b = Reader::open(dir_ + "/" + right.file);
    if (!reader_a || !reader_b) return false;
    // Re-encode left's rows then right's: the merged segment is a pure
    // function of the row sequence (dictionary ids are first-seen), so
    // the same inputs always produce byte-identical output.
    Writer writer;
    for (std::uint64_t i = 0; i < reader_a->rows(); ++i)
      writer.add(reader_a->row(i));
    for (std::uint64_t i = 0; i < reader_b->rows(); ++i)
      writer.add(reader_b->row(i));
    const std::vector<std::uint8_t> bytes = writer.encode();
    SegmentInfo merged = seal_info(
        util::format("segment-%06llu.fdb",
                     static_cast<unsigned long long>(next_seq_)),
        writer.row_count(), bytes);
    if (!write_file(dir_ + "/" + merged.file, bytes.data(), bytes.size()))
      return false;
    manifest_.segments[best] = std::move(merged);
    manifest_.segments.erase(manifest_.segments.begin() +
                             static_cast<std::ptrdiff_t>(best) + 1);
    if (!write_manifest()) return false;
    ++next_seq_;
    std::remove((dir_ + "/" + left.file).c_str());
    std::remove((dir_ + "/" + right.file).c_str());
    if (metrics_) metrics_->counter("flowdb.segments_compacted").inc();
  }
  return true;
}

// --- SegmentedReader ------------------------------------------------------

std::optional<SegmentedReader> SegmentedReader::open(const std::string& dir) {
  const auto text = read_text_file(dir + "/" + kManifestName);
  if (!text) return std::nullopt;
  auto manifest = StoreManifest::parse(*text);
  if (!manifest) return std::nullopt;
  SegmentedReader reader;
  reader.dir_ = dir;
  reader.manifest_ = std::move(*manifest);
  const std::size_t n = reader.manifest_.segments.size();
  reader.zones_.resize(n);
  reader.bases_.resize(n);
  reader.readers_.resize(n);
  std::uint64_t base = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SegmentInfo& info = reader.manifest_.segments[i];
    if (!read_segment_zone(dir + "/" + info.file, info, &reader.zones_[i]))
      return std::nullopt;
    reader.bases_[i] = base;
    base += info.rows;
  }
  return reader;
}

std::uint64_t SegmentedReader::rows() const {
  return manifest_.total_rows();
}

const Reader* SegmentedReader::segment_reader(std::size_t i) {
  if (i >= readers_.size()) return nullptr;
  if (!readers_[i]) {
    const auto start = std::chrono::steady_clock::now();
    auto opened = Reader::open(dir_ + "/" + manifest_.segments[i].file);
    open_ms_ += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!opened || opened->rows() != manifest_.segments[i].rows)
      return nullptr;
    readers_[i] = std::move(*opened);
  }
  return &*readers_[i];
}

std::optional<std::vector<std::uint64_t>> SegmentedReader::scan(
    const Filter& filter, const ScanOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const double open_ms_before = open_ms_;
  ScanStats local;
  ScanStats& stats = options.stats ? *options.stats : local;
  stats = {};

  // Segments, then chunks, in order: matches come out as ascending
  // global ids.
  std::vector<std::uint64_t> matches;
  for (std::size_t s = 0; s < manifest_.segments.size(); ++s) {
    ++stats.segments_considered;
    if (options.prune && !zone_may_match(zones_[s], filter)) {
      ++stats.segments_pruned;
      continue;
    }
    if (manifest_.segments[s].rows == 0) continue;
    const Reader* reader = segment_reader(s);
    if (!reader) return std::nullopt;
    ++stats.segments_scanned;
    const detail::CompiledFilter cf = detail::compile(*reader, filter);
    if (cf.impossible) continue;  // Dictionary short-circuit, both modes.
    const detail::RowPredicate pred(*reader, cf);
    const auto chunk_zones = reader->chunk_zones();
    const std::uint64_t nrows = reader->rows();
    for (std::uint64_t c = 0; c < chunk_zones.size(); ++c) {
      if (options.prune && !chunk_may_match(chunk_zones[c], filter)) {
        ++stats.chunks_pruned;
        continue;
      }
      const std::uint64_t begin = c * kScanChunk;
      const std::uint64_t end = std::min(nrows, begin + kScanChunk);
      for (std::uint64_t i = begin; i < end; ++i)
        if (pred(i)) matches.push_back(bases_[s] + i);
      ++stats.chunks_scanned;
      stats.rows_scanned += end - begin;
    }
  }

  stats.rows_matched = matches.size();
  stats.open_ms = open_ms_ - open_ms_before;
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  if (options.metrics) stats.add_to(*options.metrics);
  return matches;
}

std::optional<std::vector<Agg>> SegmentedReader::aggregate(
    std::span<const std::uint64_t> rows, GroupBy group) {
  // Split global ids per segment, then fold each into one label map.
  std::vector<std::vector<std::uint64_t>> per_segment(
      manifest_.segments.size());
  const std::uint64_t total = this->rows();
  for (const std::uint64_t global : rows) {
    if (global >= total) continue;
    const auto it =
        std::upper_bound(bases_.begin(), bases_.end(), global);
    const std::size_t s =
        static_cast<std::size_t>(it - bases_.begin()) - 1;
    per_segment[s].push_back(global - bases_[s]);
  }
  std::map<std::string, Agg> buckets;  // map: label-sorted for free.
  for (std::size_t s = 0; s < per_segment.size(); ++s) {
    if (per_segment[s].empty()) continue;
    const Reader* reader = segment_reader(s);
    if (!reader) return std::nullopt;
    detail::aggregate_into(*reader, per_segment[s], group, buckets);
  }
  std::vector<Agg> out;
  out.reserve(buckets.size());
  for (auto& [label, bucket] : buckets) {
    bucket.label = label;
    out.push_back(std::move(bucket));
  }
  return out;
}

std::optional<std::vector<Agg>> SegmentedReader::aggregate_all(
    GroupBy group) {
  std::vector<std::uint64_t> all(rows());
  std::iota(all.begin(), all.end(), std::uint64_t{0});
  return aggregate(all, group);
}

std::optional<Row> SegmentedReader::row(std::uint64_t global) {
  if (global >= rows()) return std::nullopt;
  const auto it = std::upper_bound(bases_.begin(), bases_.end(), global);
  const std::size_t s = static_cast<std::size_t>(it - bases_.begin()) - 1;
  const Reader* reader = segment_reader(s);
  if (!reader) return std::nullopt;
  return reader->row(global - bases_[s]);
}

std::optional<VerdictDiff> diff_verdicts(SegmentedReader& a,
                                         SegmentedReader& b) {
  const auto aggs_a = a.aggregate_all(GroupBy::kVerdict);
  const auto aggs_b = b.aggregate_all(GroupBy::kVerdict);
  if (!aggs_a || !aggs_b) return std::nullopt;
  VerdictDiff diff;
  diff.rows_a = a.rows();
  diff.rows_b = b.rows();
  std::map<std::string, VerdictDiff::Entry> merged;
  for (const Agg& agg : *aggs_a) {
    merged[agg.label].label = agg.label;
    merged[agg.label].count_a = agg.flows;
  }
  for (const Agg& agg : *aggs_b) {
    merged[agg.label].label = agg.label;
    merged[agg.label].count_b = agg.flows;
  }
  for (auto& [label, entry] : merged) {
    entry.share_a =
        diff.rows_a ? static_cast<double>(entry.count_a) / diff.rows_a : 0.0;
    entry.share_b =
        diff.rows_b ? static_cast<double>(entry.count_b) / diff.rows_b : 0.0;
    entry.delta = std::abs(entry.share_a - entry.share_b);
    diff.max_delta = std::max(diff.max_delta, entry.delta);
    diff.entries.push_back(entry);
  }
  // Two stores where one is empty and the other is not never pass.
  if ((diff.rows_a == 0) != (diff.rows_b == 0)) diff.max_delta = 1.0;
  return diff;
}

}  // namespace gq::flowdb

// gq_trace: operator CLI over saved trace archives (trace/tap.h) and
// compacted FlowDB stores (flowdb/flowdb.h).
//
//   gq_trace selftest [dir]          capture synthetic traffic, save,
//                                    reload, and exercise every command
//   gq_trace list <dir>              segment table of a saved archive
//   gq_trace summary <dir>           per-flow index summary
//   gq_trace extract <dir> <flow#> [out.pcap]
//                                    extract one flow's packets (O(flow),
//                                    via the index locations — no rescan)
//   gq_trace compact <out.fdb> <dir>...
//                                    compact saved archives into one
//                                    columnar store
//   gq_trace query <store> [filters] [--threads N] [--limit N]
//                                    predicate scan; <store> is a .fdb
//                                    file or a segmented store dir.
//                                    Prints pruning statistics and
//                                    the time spent opening (and
//                                    validating) the store;
//                                    --no-prune disables skip-scans
//   gq_trace stat <store> [filters] [--by verdict|tenant|policy|tap]
//                                    aggregated counters per group over
//                                    the rows matching the filters
//   gq_trace segments <dir>          manifest + zone-map table of a
//                                    segmented store
//   gq_trace appendseg <dir> <archive>...
//                                    compact saved archives into one
//                                    new sealed segment of store <dir>
//   gq_trace compactseg <dir> [max]  deterministic size-tiered merge
//                                    down to at most max segments
//   gq_trace diff <a.fdb> <b.fdb> [--tolerance F]
//                                    verdict-distribution comparison;
//                                    exits nonzero past the tolerance
//                                    (the cross-run regression gate)
//   gq_trace diffgate <workdir>      self-contained gate check: two
//                                    same-seed stores must diff clean,
//                                    a perturbed one must diff dirty
//   gq_trace prunegate <workdir>     self-contained skip-scan gate:
//                                    canned queries over a golden
//                                    segmented store must prune the
//                                    expected segment counts, match
//                                    the unpruned scan byte-for-byte,
//                                    and survive deterministic
//                                    compaction bit-identically
//
// Query filters: --verdict <name|none> --source <shim|cached|table>
// --tenant T --policy P --tap T --job N --vlan N --port N --addr A
// --prefix A/L --proto tcp|udp --since USEC --until USEC
//
// `selftest` doubles as the smoke entry point: with no arguments the
// tool runs it against a temporary directory and exits non-zero on any
// failure.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/query.h"
#include "flowdb/store.h"
#include "packet/frame.h"
#include "packet/pcap.h"
#include "trace/tap.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/time.h"

namespace {

using namespace gq;

const char* proto_name(pkt::FlowProto proto) {
  return proto == pkt::FlowProto::kTcp ? "tcp" : "udp";
}

/// Non-throwing numeric argv parsing (nullopt on junk, range-checked):
/// a non-numeric flow number or flag value is a usage error, never an
/// unhandled exception.
std::optional<std::uint64_t> parse_u64(std::string_view text) {
  const auto value = util::parse_int(text);
  if (!value || *value < 0) return std::nullopt;
  return static_cast<std::uint64_t>(*value);
}

std::optional<std::uint8_t> verdict_from_arg(std::string_view name) {
  // Case-insensitive: verdict_name() prints uppercase, but "drop" is
  // what people type.
  const std::string folded = util::to_lower(name);
  if (folded == "none") return 0;
  for (const auto v :
       {shim::Verdict::kForward, shim::Verdict::kLimit, shim::Verdict::kDrop,
        shim::Verdict::kRedirect, shim::Verdict::kReflect,
        shim::Verdict::kRewrite}) {
    if (folded == util::to_lower(shim::verdict_name(v)))
      return static_cast<std::uint8_t>(v);
  }
  return std::nullopt;
}

std::optional<std::uint8_t> source_from_arg(std::string_view name) {
  if (const auto s = shim::verdict_source_from_name(util::to_lower(name)))
    return static_cast<std::uint8_t>(*s);
  return std::nullopt;
}

int cmd_list(const std::string& dir) {
  auto tap = trace::load_trace(dir);
  if (!tap) {
    std::fprintf(stderr, "gq_trace: cannot load archive at %s\n",
                 dir.c_str());
    return 1;
  }
  const auto& archive = tap->archive();
  std::printf("archive '%s'  (segment budget %zu B x %zu)\n",
              tap->name().c_str(), archive.config().segment_bytes,
              archive.config().max_segments);
  if (!tap->tenant().empty()) {
    std::printf("tenant %s job %llu\n", tap->tenant().c_str(),
                static_cast<unsigned long long>(tap->job()));
  }
  std::printf(
      "lifetime %llu pkts; evicted %llu segments / %llu pkts / %llu B\n\n",
      static_cast<unsigned long long>(archive.total_packets()),
      static_cast<unsigned long long>(archive.evicted_segments()),
      static_cast<unsigned long long>(archive.evicted_packets()),
      static_cast<unsigned long long>(archive.evicted_bytes()));
  std::printf("%8s %10s %8s %14s %14s\n", "segment", "bytes", "packets",
              "first", "last");
  for (const auto& segment : archive.segments()) {
    std::printf("%8llu %10zu %8zu %14lld %14lld\n",
                static_cast<unsigned long long>(segment.seq),
                segment.pcap.size_bytes(), segment.packets,
                static_cast<long long>(segment.first_time.usec),
                static_cast<long long>(segment.last_time.usec));
  }
  return 0;
}

int cmd_summary(const std::string& dir) {
  auto tap = trace::load_trace(dir);
  if (!tap) {
    std::fprintf(stderr, "gq_trace: cannot load archive at %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf("archive '%s': %zu flows\n\n", tap->name().c_str(),
              tap->index().flow_count());
  std::size_t n = 0;
  for (const auto& flow : tap->index().flows()) {
    std::printf("#%-3zu %s %s -> %s vlan %u  %llu pkts / %llu B", n++,
                proto_name(flow.key.proto), flow.key.src.str().c_str(),
                flow.key.dst.str().c_str(), flow.vlan,
                static_cast<unsigned long long>(flow.packets),
                static_cast<unsigned long long>(flow.bytes));
    if (!flow.tenant.empty())
      std::printf("  tenant=%s job=%llu", flow.tenant.c_str(),
                  static_cast<unsigned long long>(flow.job));
    if (flow.has_verdict) {
      std::printf("  %s [%s]", shim::verdict_name(flow.verdict),
                  shim::verdict_source_name(flow.verdict_source));
      if (!flow.policy_name.empty())
        std::printf(" (policy %s)", flow.policy_name.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_extract(const std::string& dir, std::size_t flow_no,
                const std::string& out_path) {
  auto tap = trace::load_trace(dir);
  if (!tap) {
    std::fprintf(stderr, "gq_trace: cannot load archive at %s\n",
                 dir.c_str());
    return 1;
  }
  const auto& flows = tap->index().flows();
  if (flow_no >= flows.size()) {
    std::fprintf(stderr, "gq_trace: no flow #%zu (archive has %zu)\n",
                 flow_no, flows.size());
    return 1;
  }
  const auto& flow = flows[flow_no];
  const auto records = tap->extract_flow(flow);
  pkt::PcapWriter out;
  for (const auto& record : records) out.record(record.time, record.frame);
  if (!out_path.empty()) {
    if (!out.save(out_path)) {
      std::fprintf(stderr, "gq_trace: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %zu of %llu packets of flow #%zu to %s\n",
                records.size(),
                static_cast<unsigned long long>(flow.packets), flow_no,
                out_path.c_str());
  } else {
    for (const auto& record : records) {
      std::string line = "?";
      std::vector<std::uint8_t> bytes = record.frame;
      if (auto decoded = pkt::decode_frame(bytes)) line = decoded->summary();
      std::printf("%12lld  %4zu B  %s\n",
                  static_cast<long long>(record.time.usec),
                  record.frame.size(), line.c_str());
    }
    if (records.size() < flow.packets) {
      std::printf("(%llu packets rotated out of the archive)\n",
                  static_cast<unsigned long long>(flow.packets) -
                      static_cast<unsigned long long>(records.size()));
    }
  }
  return 0;
}

// --- FlowDB subcommands ---------------------------------------------------

int cmd_compact(const std::string& out_path,
                const std::vector<std::string>& dirs) {
  flowdb::Writer writer;
  for (const auto& dir : dirs) {
    auto tap = trace::load_trace(dir);
    if (!tap) {
      std::fprintf(stderr, "gq_trace: cannot load archive at %s\n",
                   dir.c_str());
      return 1;
    }
    writer.add_tap(*tap);
  }
  if (!writer.save(out_path)) {
    std::fprintf(stderr, "gq_trace: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("compacted %zu archives, %zu flows -> %s\n", dirs.size(),
              writer.row_count(), out_path.c_str());
  return 0;
}

std::optional<flowdb::Reader> open_store(const std::string& path) {
  auto reader = flowdb::Reader::open(path);
  if (!reader) {
    std::fprintf(stderr,
                 "gq_trace: cannot open store %s (missing, corrupt, or "
                 "wrong version)\n",
                 path.c_str());
  }
  return reader;
}

void print_row(const flowdb::Row& row, std::uint64_t i) {
  std::printf("#%-6llu %s %s -> %s vlan %u  %llu pkts / %llu B",
              static_cast<unsigned long long>(i), proto_name(row.proto),
              row.src.str().c_str(), row.dst.str().c_str(), row.vlan,
              static_cast<unsigned long long>(row.packets),
              static_cast<unsigned long long>(row.bytes));
  if (!row.tenant.empty())
    std::printf("  tenant=%s job=%llu", row.tenant.c_str(),
                static_cast<unsigned long long>(row.job));
  if (row.verdict != 0) {
    std::printf("  %s [%s]",
                shim::verdict_name(static_cast<shim::Verdict>(row.verdict)),
                shim::verdict_source_name(
                    static_cast<shim::VerdictSource>(row.source)));
    if (!row.policy.empty()) std::printf(" (policy %s)", row.policy.c_str());
  }
  if (!row.tap.empty()) std::printf("  tap=%s", row.tap.c_str());
  std::printf("\n");
}

/// Parse `--flag value` pairs shared by query/stat/diff. Returns false
/// (with a message) on an unknown flag or malformed value.
struct QueryArgs {
  flowdb::Filter filter;
  unsigned threads = 1;
  std::uint64_t limit = 0;  ///< 0 = unlimited.
  std::string group = "verdict";
  double tolerance = 0.02;
  bool prune = true;
};

bool parse_query_args(int argc, char** argv, int first, QueryArgs& out) {
  for (int i = first; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--no-prune") {  // Boolean flag: no value follows.
      out.prune = false;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "gq_trace: %s needs a value\n", argv[i]);
      return false;
    }
    const std::string_view value = argv[++i];
    const auto number = parse_u64(value);
    if (flag == "--verdict") {
      const auto v = verdict_from_arg(value);
      if (!v) {
        std::fprintf(stderr, "gq_trace: unknown verdict '%s'\n", argv[i]);
        return false;
      }
      out.filter.verdict = *v;
    } else if (flag == "--source") {
      const auto s = source_from_arg(value);
      if (!s) {
        std::fprintf(stderr, "gq_trace: unknown source '%s'\n", argv[i]);
        return false;
      }
      out.filter.source = *s;
    } else if (flag == "--tenant") {
      out.filter.tenant = std::string(value);
    } else if (flag == "--policy") {
      out.filter.policy = std::string(value);
    } else if (flag == "--tap") {
      out.filter.tap = std::string(value);
    } else if (flag == "--job") {
      if (!number) {
        std::fprintf(stderr, "gq_trace: bad job id '%s'\n", argv[i]);
        return false;
      }
      out.filter.job = *number;
    } else if (flag == "--vlan") {
      if (!number || *number > 0xFFFF) {
        std::fprintf(stderr, "gq_trace: bad vlan '%s'\n", argv[i]);
        return false;
      }
      out.filter.vlan = static_cast<std::uint16_t>(*number);
    } else if (flag == "--port") {
      if (!number || *number > 0xFFFF) {
        std::fprintf(stderr, "gq_trace: bad port '%s'\n", argv[i]);
        return false;
      }
      out.filter.port = static_cast<std::uint16_t>(*number);
    } else if (flag == "--addr") {
      const auto addr = util::Ipv4Addr::parse(value);
      if (!addr) {
        std::fprintf(stderr, "gq_trace: bad address '%s'\n", argv[i]);
        return false;
      }
      out.filter.endpoint = *addr;
    } else if (flag == "--prefix") {
      const auto net = util::Ipv4Net::parse(value);
      if (!net) {
        std::fprintf(stderr, "gq_trace: bad prefix '%s'\n", argv[i]);
        return false;
      }
      out.filter.prefix = *net;
    } else if (flag == "--proto") {
      if (value == "tcp") {
        out.filter.proto = pkt::FlowProto::kTcp;
      } else if (value == "udp") {
        out.filter.proto = pkt::FlowProto::kUdp;
      } else {
        std::fprintf(stderr, "gq_trace: bad proto '%s'\n", argv[i]);
        return false;
      }
    } else if (flag == "--since" || flag == "--until") {
      const auto usec = util::parse_int(value);
      if (!usec) {
        std::fprintf(stderr, "gq_trace: bad time '%s'\n", argv[i]);
        return false;
      }
      if (flag == "--since")
        out.filter.since_usec = *usec;
      else
        out.filter.until_usec = *usec;
    } else if (flag == "--threads") {
      if (!number || *number == 0 || *number > 64) {
        std::fprintf(stderr, "gq_trace: bad thread count '%s'\n", argv[i]);
        return false;
      }
      out.threads = static_cast<unsigned>(*number);
    } else if (flag == "--limit") {
      if (!number) {
        std::fprintf(stderr, "gq_trace: bad limit '%s'\n", argv[i]);
        return false;
      }
      out.limit = *number;
    } else if (flag == "--by") {
      if (value != "verdict" && value != "tenant" && value != "policy" &&
          value != "tap") {
        std::fprintf(stderr, "gq_trace: bad group '%s'\n", argv[i]);
        return false;
      }
      out.group = std::string(value);
    } else if (flag == "--tolerance") {
      char* end = nullptr;
      const double tol = std::strtod(argv[i], &end);
      if (!end || *end != '\0' || tol < 0.0 || tol > 1.0) {
        std::fprintf(stderr, "gq_trace: bad tolerance '%s'\n", argv[i]);
        return false;
      }
      out.tolerance = tol;
    } else {
      std::fprintf(stderr, "gq_trace: unknown flag '%.*s'\n",
                   static_cast<int>(flag.size()), flag.data());
      return false;
    }
  }
  return true;
}

void print_scan_stats(const flowdb::ScanStats& stats) {
  std::printf(
      "scan: segments %llu considered / %llu pruned / %llu scanned; "
      "chunks %llu pruned / %llu scanned; rows %llu scanned / %llu "
      "matched; %.3f ms, of which %.3f ms opening the store\n",
      static_cast<unsigned long long>(stats.segments_considered),
      static_cast<unsigned long long>(stats.segments_pruned),
      static_cast<unsigned long long>(stats.segments_scanned),
      static_cast<unsigned long long>(stats.chunks_pruned),
      static_cast<unsigned long long>(stats.chunks_scanned),
      static_cast<unsigned long long>(stats.rows_scanned),
      static_cast<unsigned long long>(stats.rows_matched), stats.wall_ms,
      stats.open_ms);
}

std::optional<flowdb::SegmentedReader> open_store_dir(
    const std::string& dir) {
  auto store = flowdb::SegmentedReader::open(dir);
  if (!store) {
    std::fprintf(stderr,
                 "gq_trace: cannot open segmented store %s (missing or "
                 "corrupt manifest, or a segment failed validation)\n",
                 dir.c_str());
  }
  return store;
}

/// Run a filter against a `.fdb` file or a segmented store dir,
/// returning global row ids (nullopt on store corruption). `row_of`
/// semantics match scan() ids on both paths.
struct StoreScan {
  std::optional<flowdb::Reader> file;
  std::optional<flowdb::SegmentedReader> dir;
  std::vector<std::uint64_t> matches;
  flowdb::ScanStats stats;

  [[nodiscard]] std::uint64_t rows() const {
    return file ? file->rows() : dir->rows();
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return file ? file->file_bytes() : dir->manifest().total_bytes();
  }
  [[nodiscard]] flowdb::Row row_of(std::uint64_t id) {
    if (file) return file->row(id);
    auto row = dir->row(id);
    return row ? *row : flowdb::Row{};
  }
  [[nodiscard]] std::optional<std::vector<flowdb::Agg>> aggregate(
      flowdb::GroupBy group) {
    if (file) return flowdb::aggregate(*file, matches, group);
    return dir->aggregate(matches, group);
  }
};

std::optional<StoreScan> scan_store(const std::string& path,
                                    const QueryArgs& args) {
  StoreScan result;
  flowdb::ScanOptions options;
  options.threads = args.threads;
  options.prune = args.prune;
  options.stats = &result.stats;
  if (std::filesystem::is_directory(path)) {
    result.dir = open_store_dir(path);
    if (!result.dir) return std::nullopt;
    auto matches = result.dir->scan(args.filter, options);
    if (!matches) {
      std::fprintf(stderr,
                   "gq_trace: scan failed — a segment of %s failed "
                   "validation\n",
                   path.c_str());
      return std::nullopt;
    }
    result.matches = std::move(*matches);
  } else {
    const auto start = std::chrono::steady_clock::now();
    result.file = open_store(path);
    if (!result.file) return std::nullopt;
    const double open_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    result.matches = flowdb::scan(*result.file, args.filter, options);
    // Count the file's open like a segment's, so both paths report
    // open time as part of the query's wall time.
    result.stats.open_ms = open_ms;
    result.stats.wall_ms += open_ms;
  }
  return result;
}

int cmd_query(const std::string& path, const QueryArgs& args) {
  auto scan = scan_store(path, args);
  if (!scan) return 1;
  std::uint64_t shown = 0;
  for (const auto i : scan->matches) {
    if (args.limit && shown >= args.limit) break;
    print_row(scan->row_of(i), i);
    ++shown;
  }
  if (args.limit && scan->matches.size() > shown)
    std::printf("(%zu more matches)\n", scan->matches.size() - shown);
  std::printf("%zu of %llu flows matched\n", scan->matches.size(),
              static_cast<unsigned long long>(scan->rows()));
  print_scan_stats(scan->stats);
  return 0;
}

int cmd_stat(const std::string& path, const QueryArgs& args) {
  auto scan = scan_store(path, args);
  if (!scan) return 1;
  const auto group = args.group == "tenant"   ? flowdb::GroupBy::kTenant
                     : args.group == "policy" ? flowdb::GroupBy::kPolicy
                     : args.group == "tap"    ? flowdb::GroupBy::kTap
                                              : flowdb::GroupBy::kVerdict;
  std::printf("store %s: %llu flows, %llu B\n\n", path.c_str(),
              static_cast<unsigned long long>(scan->rows()),
              static_cast<unsigned long long>(scan->bytes()));
  const auto aggs = scan->aggregate(group);
  if (!aggs) {
    std::fprintf(stderr, "gq_trace: aggregation failed on %s\n",
                 path.c_str());
    return 1;
  }
  std::printf("%-16s %10s %14s %16s\n", args.group.c_str(), "flows",
              "packets", "bytes");
  for (const auto& agg : *aggs) {
    std::printf("%-16s %10llu %14llu %16llu\n", agg.label.c_str(),
                static_cast<unsigned long long>(agg.flows),
                static_cast<unsigned long long>(agg.packets),
                static_cast<unsigned long long>(agg.bytes));
  }
  print_scan_stats(scan->stats);
  return 0;
}

// --- Segmented-store subcommands ------------------------------------------

int cmd_segments(const std::string& dir) {
  auto store = open_store_dir(dir);
  if (!store) return 1;
  std::printf("store %s: %zu segments, %llu rows, %llu B\n\n", dir.c_str(),
              store->segment_count(),
              static_cast<unsigned long long>(store->rows()),
              static_cast<unsigned long long>(store->manifest().total_bytes()));
  std::printf("%-22s %8s %10s %16s %14s %14s %11s %13s\n", "segment", "rows",
              "bytes", "footer-hash", "first", "last", "vlan", "port");
  for (std::size_t i = 0; i < store->segment_count(); ++i) {
    const auto& info = store->manifest().segments[i];
    const auto& zone = store->segment_zone(i);
    if (zone.row_count == 0) {
      std::printf("%-22s %8llu %10llu %016llx %14s %14s %11s %13s\n",
                  info.file.c_str(),
                  static_cast<unsigned long long>(info.rows),
                  static_cast<unsigned long long>(info.bytes),
                  static_cast<unsigned long long>(info.footer_hash), "-",
                  "-", "-", "-");
      continue;
    }
    std::printf("%-22s %8llu %10llu %016llx %14lld %14lld %5u-%-5u "
                "%6u-%-6u\n",
                info.file.c_str(),
                static_cast<unsigned long long>(info.rows),
                static_cast<unsigned long long>(info.bytes),
                static_cast<unsigned long long>(info.footer_hash),
                static_cast<long long>(zone.min_first_usec),
                static_cast<long long>(zone.max_last_usec), zone.min_vlan,
                zone.max_vlan, zone.min_port, zone.max_port);
  }
  return 0;
}

int cmd_appendseg(const std::string& dir,
                  const std::vector<std::string>& archives) {
  auto store = flowdb::SegmentedStore::open(dir);
  if (!store) {
    std::fprintf(stderr, "gq_trace: cannot open store dir %s\n",
                 dir.c_str());
    return 1;
  }
  flowdb::Writer writer;
  for (const auto& archive : archives) {
    auto tap = trace::load_trace(archive);
    if (!tap) {
      std::fprintf(stderr, "gq_trace: cannot load archive at %s\n",
                   archive.c_str());
      return 1;
    }
    writer.add_tap(*tap);
  }
  if (!store->append_segment(writer)) {
    std::fprintf(stderr, "gq_trace: segment append failed in %s\n",
                 dir.c_str());
    return 1;
  }
  if (writer.row_count() == 0) {
    std::printf("no flows in %zu archives; store unchanged\n",
                archives.size());
    return 0;
  }
  std::printf("appended %zu archives, %zu flows -> %s/%s (%zu segments)\n",
              archives.size(), writer.row_count(), dir.c_str(),
              store->manifest().segments.back().file.c_str(),
              store->manifest().segments.size());
  return 0;
}

int cmd_compactseg(const std::string& dir, std::size_t max_segments) {
  auto store = flowdb::SegmentedStore::open(dir);
  if (!store) {
    std::fprintf(stderr, "gq_trace: cannot open store dir %s\n",
                 dir.c_str());
    return 1;
  }
  const std::size_t before = store->manifest().segments.size();
  if (!store->compact_segments(max_segments)) {
    std::fprintf(stderr, "gq_trace: compaction failed in %s\n", dir.c_str());
    return 1;
  }
  std::printf("compacted %zu -> %zu segments (%llu rows, %llu B)\n", before,
              store->manifest().segments.size(),
              static_cast<unsigned long long>(store->manifest().total_rows()),
              static_cast<unsigned long long>(
                  store->manifest().total_bytes()));
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             double tolerance) {
  const auto a = open_store(path_a);
  const auto b = open_store(path_b);
  if (!a || !b) return 1;
  const auto diff = flowdb::diff_verdicts(*a, *b);
  std::printf("%-10s %10s %8s %10s %8s %8s\n", "verdict", "a", "a%", "b",
              "b%", "delta");
  for (const auto& entry : diff.entries) {
    std::printf("%-10s %10llu %7.2f%% %10llu %7.2f%% %7.4f\n",
                entry.label.c_str(),
                static_cast<unsigned long long>(entry.count_a),
                entry.share_a * 100.0,
                static_cast<unsigned long long>(entry.count_b),
                entry.share_b * 100.0, entry.delta);
  }
  std::printf("rows a=%llu b=%llu  max delta %.4f  tolerance %.4f  -> %s\n",
              static_cast<unsigned long long>(diff.rows_a),
              static_cast<unsigned long long>(diff.rows_b), diff.max_delta,
              tolerance, diff.within(tolerance) ? "PASS" : "FAIL");
  return diff.within(tolerance) ? 0 : 1;
}

// --- Synthetic stores (diffgate, selftest) --------------------------------

/// Deterministic synthetic store: same seed → byte-identical file.
/// `drop_bias` skews the verdict mix (the "perturbed distribution" the
/// gate must catch).
flowdb::Writer synth_store(std::uint64_t seed, std::size_t rows,
                           double drop_bias) {
  util::Rng rng(seed);
  const char* tenants[] = {"acme", "umbrella", "tyrell"};
  flowdb::Writer writer;
  for (std::size_t i = 0; i < rows; ++i) {
    flowdb::Row row;
    row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    row.src = {util::Ipv4Addr(10, 9, 0, static_cast<std::uint8_t>(
                                            rng.below(200) + 1)),
               static_cast<std::uint16_t>(rng.range(1024, 65000))};
    row.dst = {util::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
               static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
    row.vlan = static_cast<std::uint16_t>(100 + rng.below(16));
    row.tenant = tenants[rng.below(std::size(tenants))];
    row.job = rng.below(64) + 1;
    const double roll = rng.uniform();
    row.verdict = static_cast<std::uint8_t>(
        roll < drop_bias          ? shim::Verdict::kDrop
        : roll < drop_bias + 0.30 ? shim::Verdict::kForward
        : roll < drop_bias + 0.45 ? shim::Verdict::kRewrite
                                  : shim::Verdict::kRedirect);
    row.source = static_cast<std::uint8_t>(
        rng.chance(0.5) ? shim::VerdictSource::kCached
                        : shim::VerdictSource::kShim);
    row.policy = row.verdict == static_cast<std::uint8_t>(shim::Verdict::kDrop)
                     ? "quarantine"
                     : "default";
    row.tap = "synth";
    row.packets = rng.below(50) + 1;
    row.bytes = row.packets * (rng.below(1000) + 60);
    row.first_usec = static_cast<std::int64_t>(i) * 1000;
    row.last_usec = row.first_usec + static_cast<std::int64_t>(rng.below(5000));
    writer.add(std::move(row));
  }
  return writer;
}

/// The committed-golden-seed regression gate: two same-seed stores must
/// diff clean; a deliberately perturbed verdict mix must trip the gate.
/// Golden seeds match the trace replay regression (tests/trace_test.cc).
int cmd_diffgate(const std::string& workdir) {
  constexpr std::uint64_t kGoldenSeedA = 0x6071;
  constexpr std::uint64_t kGoldenSeedB = 0xC0FFEE;
  constexpr std::size_t kRows = 4096;
  constexpr double kTolerance = 0.02;

  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "diffgate: cannot create %s\n", workdir.c_str());
    return 1;
  }
  const std::string run1 = workdir + "/run1.fdb";
  const std::string run2 = workdir + "/run2.fdb";
  const std::string perturbed = workdir + "/perturbed.fdb";
  if (!synth_store(kGoldenSeedA, kRows, 0.25).save(run1) ||
      !synth_store(kGoldenSeedA, kRows, 0.25).save(run2) ||
      !synth_store(kGoldenSeedB, kRows, 0.55).save(perturbed)) {
    std::fprintf(stderr, "diffgate: store write failed\n");
    return 1;
  }
  std::printf("== same-seed rerun (must PASS) ==\n");
  if (cmd_diff(run1, run2, kTolerance) != 0) {
    std::fprintf(stderr, "diffgate: same-seed rerun FAILED the gate\n");
    return 1;
  }
  std::printf("\n== perturbed distribution (must FAIL) ==\n");
  if (cmd_diff(run1, perturbed, kTolerance) == 0) {
    std::fprintf(stderr,
                 "diffgate: perturbed distribution slipped past the gate\n");
    return 1;
  }
  std::printf("\ndiffgate OK (%s)\n", workdir.c_str());
  return 0;
}

// --- Prune gate -----------------------------------------------------------

/// One synthetic segment for the skip-scan gate. Every prunable
/// dimension is keyed off the segment index so segments are separable:
/// disjoint 10 s time slabs, one vlan per segment, tenant index%6, and
/// per-segment /24s for both endpoints. The endpoint pool is small
/// (~264 distinct addresses) so the 1 KiB bloom stays far from
/// saturation and address pruning is exact in practice.
flowdb::Writer synth_segment(std::uint64_t seed, std::size_t index,
                             std::size_t rows) {
  constexpr std::int64_t kSlabUsec = 10'000'000;
  util::Rng rng(seed + index * 7919);
  flowdb::Writer writer;
  for (std::size_t i = 0; i < rows; ++i) {
    flowdb::Row row;
    row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    row.src = {util::Ipv4Addr(10, 9, static_cast<std::uint8_t>(index),
                              static_cast<std::uint8_t>(rng.below(200) + 1)),
               static_cast<std::uint16_t>(rng.range(1024, 65000))};
    row.dst = {util::Ipv4Addr(10, static_cast<std::uint8_t>(100 + index), 0,
                              static_cast<std::uint8_t>(rng.below(64) + 1)),
               static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
    row.vlan = static_cast<std::uint16_t>(100 + index);
    row.tenant = util::format("t%zu", index % 6);
    row.job = index * 100 + rng.below(8) + 1;
    const double roll = rng.uniform();
    row.verdict = static_cast<std::uint8_t>(
        roll < 0.25   ? shim::Verdict::kDrop
        : roll < 0.55 ? shim::Verdict::kForward
                      : shim::Verdict::kRedirect);
    row.source = static_cast<std::uint8_t>(
        rng.chance(0.5) ? shim::VerdictSource::kCached
                        : shim::VerdictSource::kShim);
    row.policy = "default";
    row.tap = "synth";
    row.packets = rng.below(50) + 1;
    row.bytes = row.packets * (rng.below(1000) + 60);
    row.first_usec = static_cast<std::int64_t>(index) * kSlabUsec +
                     static_cast<std::int64_t>(i) * 2000;
    row.last_usec = row.first_usec + static_cast<std::int64_t>(rng.below(1500));
    writer.add(std::move(row));
  }
  return writer;
}

bool build_prune_store(const std::string& dir, std::size_t segments,
                       std::size_t rows) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto store = flowdb::SegmentedStore::open(dir);
  if (!store) return false;
  for (std::size_t s = 0; s < segments; ++s) {
    if (!store->append_segment(synth_segment(0x5EC5, s, rows))) return false;
  }
  return true;
}

std::optional<std::string> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string out;
  char buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return out;
}

/// Byte-identity of two store dirs: manifests equal, every listed
/// segment file equal.
bool stores_identical(const std::string& a, const std::string& b) {
  const auto ma = slurp(a + "/" + flowdb::kManifestName);
  const auto mb = slurp(b + "/" + flowdb::kManifestName);
  if (!ma || !mb || *ma != *mb) return false;
  const auto manifest = flowdb::StoreManifest::parse(*ma);
  if (!manifest) return false;
  for (const auto& seg : manifest->segments) {
    const auto fa = slurp(a + "/" + seg.file);
    const auto fb = slurp(b + "/" + seg.file);
    if (!fa || !fb || *fa != *fb) return false;
  }
  return true;
}

/// The committed skip-scan gate: canned selective queries over a golden
/// 12-segment store must (a) prune exactly the expected segment count,
/// (b) return byte-identical matches with pruning disabled, and
/// (c) survive build-twice and compact-twice byte-identically with
/// unchanged query results (compaction preserves global row ids).
int cmd_prunegate(const std::string& workdir) {
  constexpr std::size_t kSegments = 12;
  constexpr std::size_t kRowsPerSegment = 4096;
  constexpr std::int64_t kSlabUsec = 10'000'000;

  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "prunegate: cannot create %s\n", workdir.c_str());
    return 1;
  }
  const std::string dir1 = workdir + "/store1";
  const std::string dir2 = workdir + "/store2";
  if (!build_prune_store(dir1, kSegments, kRowsPerSegment) ||
      !build_prune_store(dir2, kSegments, kRowsPerSegment)) {
    std::fprintf(stderr, "prunegate: store build failed\n");
    return 1;
  }
  if (!stores_identical(dir1, dir2)) {
    std::fprintf(stderr, "prunegate: same-input stores differ on disk\n");
    return 1;
  }

  struct Canned {
    const char* name;
    flowdb::Filter filter;
    std::uint64_t expect_pruned;
  };
  std::vector<Canned> queries;
  {
    Canned q;
    q.name = "time-window(seg5)";
    q.filter.since_usec = 5 * kSlabUsec + 1'000'000;
    q.filter.until_usec = 5 * kSlabUsec + 3'000'000;
    q.expect_pruned = 11;
    queries.push_back(q);
  }
  {
    Canned q;
    q.name = "tenant(t3)";
    q.filter.tenant = "t3";
    q.expect_pruned = 10;  // t3 = segments 3 and 9.
    queries.push_back(q);
  }
  {
    Canned q;
    q.name = "addr(10.107.0.5)";
    q.filter.endpoint = util::Ipv4Addr(10, 107, 0, 5);  // dst /24 of seg 7.
    q.expect_pruned = 11;
    queries.push_back(q);
  }
  {
    Canned q;
    q.name = "vlan(104)";
    q.filter.vlan = 104;
    q.expect_pruned = 11;
    queries.push_back(q);
  }

  // Run the canned queries against a store dir; with `check_pruning`
  // also enforce the pinned prune counts and prune-on/off identity.
  const auto run_queries =
      [&](const std::string& dir, bool check_pruning,
          std::vector<std::vector<std::uint64_t>>* out) -> bool {
    auto store = flowdb::SegmentedReader::open(dir);
    if (!store) {
      std::fprintf(stderr, "prunegate: cannot open %s\n", dir.c_str());
      return false;
    }
    for (const auto& q : queries) {
      flowdb::ScanStats stats;
      flowdb::ScanOptions options;
      options.threads = 2;
      options.stats = &stats;
      const auto pruned = store->scan(q.filter, options);
      if (!pruned) {
        std::fprintf(stderr, "prunegate: %s: scan failed\n", q.name);
        return false;
      }
      if (check_pruning) {
        flowdb::ScanOptions full = options;
        full.prune = false;
        full.stats = nullptr;  // Keep the pruned run's stats intact.
        const auto unpruned = store->scan(q.filter, full);
        if (!unpruned || *unpruned != *pruned) {
          std::fprintf(stderr,
                       "prunegate: %s: pruned scan differs from full scan\n",
                       q.name);
          return false;
        }
        std::printf("%-20s %6zu matches, %llu/%zu segments pruned, "
                    "%llu chunks pruned\n",
                    q.name, pruned->size(),
                    static_cast<unsigned long long>(stats.segments_pruned),
                    store->segment_count(),
                    static_cast<unsigned long long>(stats.chunks_pruned));
        if (pruned->empty()) {
          std::fprintf(stderr, "prunegate: %s matched nothing\n", q.name);
          return false;
        }
        if (stats.segments_pruned != q.expect_pruned) {
          std::fprintf(
              stderr, "prunegate: %s pruned %llu segments, want %llu\n",
              q.name, static_cast<unsigned long long>(stats.segments_pruned),
              static_cast<unsigned long long>(q.expect_pruned));
          return false;
        }
      }
      if (out) out->push_back(*pruned);
    }
    return true;
  };

  std::vector<std::vector<std::uint64_t>> before;
  if (!run_queries(dir1, true, &before)) return 1;

  // Deterministic compaction: both stores compact to identical bytes,
  // and global row ids survive (order-preserving merges), so every
  // canned query returns the same matches afterwards.
  const auto compact = [](const std::string& dir) {
    auto store = flowdb::SegmentedStore::open(dir);
    return store && store->compact_segments(4);
  };
  if (!compact(dir1) || !compact(dir2)) {
    std::fprintf(stderr, "prunegate: compaction failed\n");
    return 1;
  }
  if (!stores_identical(dir1, dir2)) {
    std::fprintf(stderr, "prunegate: compacted stores differ on disk\n");
    return 1;
  }
  std::vector<std::vector<std::uint64_t>> after;
  if (!run_queries(dir1, false, &after)) return 1;
  if (after != before) {
    std::fprintf(stderr,
                 "prunegate: query results changed across compaction\n");
    return 1;
  }
  std::printf("\nprunegate OK (%s)\n", workdir.c_str());
  return 0;
}

// --- Selftest -------------------------------------------------------------

std::vector<std::uint8_t> make_tcp_frame(util::Ipv4Addr src,
                                         util::Ipv4Addr dst,
                                         std::uint16_t sport,
                                         std::uint16_t dport,
                                         const char* payload) {
  pkt::DecodedFrame frame;
  frame.eth.ethertype = pkt::kEtherTypeIpv4;
  frame.ip = pkt::Ipv4Packet{};
  frame.ip->src = src;
  frame.ip->dst = dst;
  frame.tcp = pkt::TcpSegment{};
  frame.tcp->src_port = sport;
  frame.tcp->dst_port = dport;
  frame.tcp->payload.assign(payload, payload + std::strlen(payload));
  return frame.encode();
}

int cmd_selftest(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  // Capture: two flows, enough bytes to force several rotations.
  trace::ArchiveConfig config;
  config.segment_bytes = 2048;
  config.max_segments = 4;
  trace::TraceTap tap("selftest", config, nullptr);
  tap.set_context("selftest-tenant", 7);
  const auto inmate = util::Ipv4Addr(10, 9, 0, 23);
  const auto web = util::Ipv4Addr(192, 150, 187, 12);
  const auto sink = util::Ipv4Addr(10, 3, 0, 99);
  for (int i = 0; i < 64; ++i) {
    tap.record(util::TimePoint{i * 1000 + 1},
               make_tcp_frame(inmate, web, 1234, 80,
                              "GET /bot.exe HTTP/1.1\r\n\r\n"));
    tap.record(util::TimePoint{i * 1000 + 2},
               make_tcp_frame(web, inmate, 80, 1234, "HTTP/1.1 200 OK\r\n"));
    if (i % 4 == 0)
      tap.record(util::TimePoint{i * 1000 + 3},
                 make_tcp_frame(inmate, sink, 2345, 25, "HELO spam\r\n"));
  }
  tap.annotate({pkt::FlowProto::kTcp, {inmate, 1234}, {web, 80}}, 0,
               shim::Verdict::kRewrite, "botdl");
  tap.annotate({pkt::FlowProto::kTcp, {inmate, 2345}, {sink, 25}}, 0,
               shim::Verdict::kRedirect, "spam", shim::VerdictSource::kCached);

  if (tap.archive().evicted_segments() == 0) {
    std::fprintf(stderr, "selftest: expected rotation to evict segments\n");
    return 1;
  }
  if (!tap.save(dir)) {
    std::fprintf(stderr, "selftest: save failed\n");
    return 1;
  }

  // Reload and check the round trip preserved what eviction retained.
  auto loaded = trace::load_trace(dir);
  if (!loaded) {
    std::fprintf(stderr, "selftest: reload failed\n");
    return 1;
  }
  if (loaded->contents() != tap.contents()) {
    std::fprintf(stderr, "selftest: reloaded capture differs\n");
    return 1;
  }
  if (loaded->index().flow_count() != tap.index().flow_count()) {
    std::fprintf(stderr, "selftest: reloaded flow count differs\n");
    return 1;
  }
  if (loaded->tenant() != "selftest-tenant" || loaded->job() != 7) {
    std::fprintf(stderr, "selftest: tenant/job lost in round trip\n");
    return 1;
  }
  const auto* flow = loaded->index().find(
      {pkt::FlowProto::kTcp, {inmate, 1234}, {web, 80}}, 0);
  if (!flow || !flow->has_verdict ||
      flow->verdict != shim::Verdict::kRewrite ||
      flow->verdict_source == shim::VerdictSource::kCached) {
    std::fprintf(stderr, "selftest: verdict lost in round trip\n");
    return 1;
  }
  if (flow->tenant != "selftest-tenant" || flow->job != 7) {
    std::fprintf(stderr, "selftest: flow attribution lost in round trip\n");
    return 1;
  }
  const auto* spam_flow = loaded->index().find(
      {pkt::FlowProto::kTcp, {inmate, 2345}, {sink, 25}}, 0);
  if (!spam_flow ||
      spam_flow->verdict_source != shim::VerdictSource::kCached) {
    std::fprintf(stderr, "selftest: verdict source lost in round trip\n");
    return 1;
  }

  // Compact the archive into a FlowDB store and drive the query path.
  const std::string store_path = dir + "/store.fdb";
  if (cmd_compact(store_path, {dir}) != 0) return 1;
  auto reader = flowdb::Reader::open(store_path);
  if (!reader || reader->rows() != tap.index().flow_count()) {
    std::fprintf(stderr, "selftest: compacted store row count differs\n");
    return 1;
  }
  flowdb::Filter rewrite_filter;
  rewrite_filter.verdict = static_cast<std::uint8_t>(shim::Verdict::kRewrite);
  const auto serial = flowdb::scan(*reader, rewrite_filter);
  if (serial.size() != 1) {
    std::fprintf(stderr, "selftest: rewrite query found %zu flows, want 1\n",
                 serial.size());
    return 1;
  }
  flowdb::ScanOptions four_threads;
  four_threads.threads = 4;
  if (flowdb::scan(*reader, rewrite_filter, four_threads) != serial) {
    std::fprintf(stderr, "selftest: parallel scan differs from serial\n");
    return 1;
  }
  flowdb::Filter tenant_filter;
  tenant_filter.tenant = "selftest-tenant";
  if (flowdb::scan(*reader, tenant_filter).size() != reader->rows()) {
    std::fprintf(stderr, "selftest: tenant query missed flows\n");
    return 1;
  }
  if (!flowdb::diff_verdicts(*reader, *reader).within(0.0)) {
    std::fprintf(stderr, "selftest: store does not diff clean vs itself\n");
    return 1;
  }

  // Segmented-store round trip over the same archive: two appends,
  // manifest table, a directory query (must see both copies), compact.
  const std::string seg_dir = dir + "/segstore";
  if (cmd_appendseg(seg_dir, {dir}) != 0) return 1;
  if (cmd_appendseg(seg_dir, {dir}) != 0) return 1;
  auto seg_store = flowdb::SegmentedReader::open(seg_dir);
  if (!seg_store || seg_store->segment_count() != 2 ||
      seg_store->rows() != 2 * reader->rows()) {
    std::fprintf(stderr, "selftest: segmented store round trip failed\n");
    return 1;
  }
  flowdb::ScanStats seg_stats;
  flowdb::ScanOptions seg_options;
  seg_options.stats = &seg_stats;
  const auto seg_matches = seg_store->scan(rewrite_filter, seg_options);
  if (!seg_matches || seg_matches->size() != 2 * serial.size()) {
    std::fprintf(stderr, "selftest: segmented scan missed flows\n");
    return 1;
  }
  if (seg_stats.segments_considered != 2) {
    std::fprintf(stderr, "selftest: scan statistics not populated\n");
    return 1;
  }
  if (cmd_segments(seg_dir) != 0) return 1;
  std::printf("\n");
  if (cmd_compactseg(seg_dir, 1) != 0) return 1;
  std::printf("\n");

  // Exercise every command against the saved artifacts.
  if (cmd_list(dir) != 0) return 1;
  std::printf("\n");
  if (cmd_summary(dir) != 0) return 1;
  std::printf("\n");
  if (cmd_extract(dir, 0, "") != 0) return 1;
  std::printf("\n");
  QueryArgs stat_args;
  if (cmd_stat(store_path, stat_args) != 0) return 1;
  std::printf("\n");
  if (cmd_stat(seg_dir, stat_args) != 0) return 1;
  std::printf("\n");
  if (cmd_diff(store_path, store_path, 0.0) != 0) return 1;
  std::printf("\n");
  if (cmd_diffgate(dir + "/diffgate") != 0) return 1;
  std::printf("\nselftest OK (%s)\n", dir.c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: gq_trace selftest [dir] | list <dir> | summary <dir>\n"
      "       gq_trace extract <dir> <flow#> [out.pcap]\n"
      "       gq_trace compact <out.fdb> <dir>...\n"
      "       gq_trace query <store> [filters] [--threads N] [--limit N] "
      "[--no-prune]\n"
      "       gq_trace stat <store> [filters] [--by "
      "verdict|tenant|policy|tap]\n"
      "       gq_trace segments <dir> | appendseg <dir> <archive>...\n"
      "       gq_trace compactseg <dir> [max]\n"
      "       gq_trace diff <a.fdb> <b.fdb> [--tolerance F]\n"
      "       gq_trace diffgate <workdir> | prunegate <workdir>\n"
      "filters: --verdict V|none --source shim|cached|table --tenant T\n"
      "         --policy P --tap T --job N --vlan N --port N --addr A\n"
      "         --prefix A/L --proto tcp|udp --since USEC --until USEC\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "selftest";
  if (cmd == "selftest")
    return cmd_selftest(argc > 2 ? argv[2] : "gq_trace_selftest");
  if (cmd == "list" && argc > 2) return cmd_list(argv[2]);
  if (cmd == "summary" && argc > 2) return cmd_summary(argv[2]);
  if (cmd == "extract" && argc > 3) {
    // A non-numeric flow number is a usage error, not a crash.
    const auto flow_no = parse_u64(argv[3]);
    if (!flow_no) {
      std::fprintf(stderr, "gq_trace: bad flow number '%s'\n", argv[3]);
      return usage();
    }
    return cmd_extract(argv[2], static_cast<std::size_t>(*flow_no),
                       argc > 4 ? argv[4] : "");
  }
  if (cmd == "compact" && argc > 3) {
    std::vector<std::string> dirs(argv + 3, argv + argc);
    return cmd_compact(argv[2], dirs);
  }
  if (cmd == "query" && argc > 2) {
    QueryArgs args;
    if (!parse_query_args(argc, argv, 3, args)) return usage();
    return cmd_query(argv[2], args);
  }
  if (cmd == "stat" && argc > 2) {
    QueryArgs args;
    if (!parse_query_args(argc, argv, 3, args)) return usage();
    return cmd_stat(argv[2], args);
  }
  if (cmd == "diff" && argc > 3) {
    QueryArgs args;
    if (!parse_query_args(argc, argv, 4, args)) return usage();
    return cmd_diff(argv[2], argv[3], args.tolerance);
  }
  if (cmd == "segments" && argc > 2) return cmd_segments(argv[2]);
  if (cmd == "appendseg" && argc > 3) {
    std::vector<std::string> archives(argv + 3, argv + argc);
    return cmd_appendseg(argv[2], archives);
  }
  if (cmd == "compactseg" && argc > 2) {
    std::size_t max_segments = flowdb::kDefaultMaxSegments;
    if (argc > 3) {
      const auto n = parse_u64(argv[3]);
      if (!n || *n == 0) {
        std::fprintf(stderr, "gq_trace: bad segment bound '%s'\n", argv[3]);
        return usage();
      }
      max_segments = static_cast<std::size_t>(*n);
    }
    return cmd_compactseg(argv[2], max_segments);
  }
  if (cmd == "diffgate" && argc > 2) return cmd_diffgate(argv[2]);
  if (cmd == "prunegate" && argc > 2) return cmd_prunegate(argv[2]);
  return usage();
}

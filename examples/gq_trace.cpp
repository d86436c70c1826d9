// gq_trace: operator CLI over saved trace archives (trace/tap.h) and
// FlowDB store directories (flowdb/store.h).
//
//   gq_trace list <dir>              segment table of a saved archive
//   gq_trace summary <dir>           per-flow index summary
//   gq_trace extract <dir> <flow#> [out.pcap]
//                                    extract one flow's packets (O(flow),
//                                    via the index locations — no rescan)
//   gq_trace query <store> [filters] [--limit N]
//                                    predicate scan over a store dir.
//                                    Prints pruning statistics and
//                                    the time spent opening (and
//                                    validating) the store;
//                                    --no-prune disables skip-scans
//   gq_trace stat <store> [filters] [--by verdict|tenant|policy|tap]
//                                    aggregated counters per group over
//                                    the rows matching the filters
//   gq_trace segments <dir>          manifest + zone-map table of a
//                                    store
//   gq_trace appendseg <dir> <archive>...
//                                    compact saved archives into one
//                                    new sealed segment of store <dir>
//                                    (created on first use)
//   gq_trace compactseg <dir> [max]  deterministic size-tiered merge
//                                    down to at most max segments
//   gq_trace diff <store-a> <store-b> [--tolerance F]
//                                    verdict-distribution comparison;
//                                    exits nonzero past the tolerance
//                                    (the cross-run regression gate)
//
// Query filters: --verdict <name|none> --source <shim|cached|table>
// --tenant T --policy P --tap T --job N --vlan N --port N --addr A
// --prefix A/L --proto tcp|udp --since USEC --until USEC
//
// Exit status: 0 on success, 1 when an artifact cannot be read or
// written (or `diff` exceeds its tolerance), 2 on a usage error.
// tests/gq_trace_cli_test.cc drives every command.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/query.h"
#include "flowdb/store.h"
#include "packet/frame.h"
#include "packet/pcap.h"
#include "trace/tap.h"
#include "util/strings.h"

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

/// load_trace with the CLI's error message; nullopt on a missing or
/// corrupt archive.
std::optional<trace::TraceTap> load_archive(const std::string& dir) {
  auto tap = trace::load_trace(dir);
  if (!tap)
    std::fprintf(stderr, "gq_trace: cannot load archive at %s\n",
                 dir.c_str());
  return tap;
}

int cmd_list(const std::string& dir) {
  auto tap = load_archive(dir);
  if (!tap) return 1;
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
  auto tap = load_archive(dir);
  if (!tap) return 1;
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
  auto tap = load_archive(dir);
  if (!tap) return 1;
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
      // NaN fails both comparisons, so it is rejected with the range.
      if (end == argv[i] || *end != '\0' || !(tol >= 0.0 && tol <= 1.0)) {
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

/// A store and the global row ids a filter matched in it.
struct StoreScan {
  flowdb::SegmentedReader store;
  std::vector<std::uint64_t> matches;
  flowdb::ScanStats stats;
};

std::optional<StoreScan> scan_store(const std::string& dir,
                                    const QueryArgs& args) {
  auto store = open_store_dir(dir);
  if (!store) return std::nullopt;
  StoreScan result{std::move(*store), {}, {}};
  flowdb::ScanOptions options;
  options.prune = args.prune;
  options.stats = &result.stats;
  auto matches = result.store.scan(args.filter, options);
  if (!matches) {
    std::fprintf(stderr,
                 "gq_trace: scan failed — a segment of %s failed "
                 "validation\n",
                 dir.c_str());
    return std::nullopt;
  }
  result.matches = std::move(*matches);
  return result;
}

int cmd_query(const std::string& path, const QueryArgs& args) {
  auto scan = scan_store(path, args);
  if (!scan) return 1;
  std::uint64_t shown = 0;
  for (const auto i : scan->matches) {
    if (args.limit && shown >= args.limit) break;
    const auto row = scan->store.row(i);
    if (!row) {
      std::fprintf(stderr, "gq_trace: row %llu of %s failed validation\n",
                   static_cast<unsigned long long>(i), path.c_str());
      return 1;
    }
    print_row(*row, i);
    ++shown;
  }
  if (args.limit && scan->matches.size() > shown)
    std::printf("(%zu more matches)\n", scan->matches.size() - shown);
  std::printf("%zu of %llu flows matched\n", scan->matches.size(),
              static_cast<unsigned long long>(scan->store.rows()));
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
              static_cast<unsigned long long>(scan->store.rows()),
              static_cast<unsigned long long>(
                  scan->store.manifest().total_bytes()));
  const auto aggs = scan->store.aggregate(scan->matches, group);
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
    auto tap = load_archive(archive);
    if (!tap) return 1;
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

int cmd_diff(const std::string& dir_a, const std::string& dir_b,
             double tolerance) {
  auto a = open_store_dir(dir_a);
  auto b = open_store_dir(dir_b);
  if (!a || !b) return 1;
  const auto result = flowdb::diff_verdicts(*a, *b);
  if (!result) {
    std::fprintf(stderr,
                 "gq_trace: diff failed — a segment of %s or %s failed "
                 "validation\n",
                 dir_a.c_str(), dir_b.c_str());
    return 1;
  }
  const auto& diff = *result;
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

int usage() {
  std::fprintf(
      stderr,
      "usage: gq_trace list <dir> | summary <dir>\n"
      "       gq_trace extract <dir> <flow#> [out.pcap]\n"
      "       gq_trace query <store> [filters] [--limit N] [--no-prune]\n"
      "       gq_trace stat <store> [filters] [--by "
      "verdict|tenant|policy|tap]\n"
      "       gq_trace segments <dir> | appendseg <dir> <archive>...\n"
      "       gq_trace compactseg <dir> [max]\n"
      "       gq_trace diff <store-a> <store-b> [--tolerance F]\n"
      "filters: --verdict V|none --source shim|cached|table --tenant T\n"
      "         --policy P --tap T --job N --vlan N --port N --addr A\n"
      "         --prefix A/L --proto tcp|udp --since USEC --until USEC\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
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
  return usage();
}

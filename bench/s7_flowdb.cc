// FlowDB scan-throughput bench (EXPERIMENTS.md S7): seals a
// >= 100k-flow index into a one-segment FlowDB store dir and races the
// query engine against the pre-FlowDB answer path — a linear reload of a
// text sidecar (one tab-separated line per flow, written and parsed by
// this file) with a per-flow predicate pass. Self-
// gating, per the PR 5/6 convention: exits nonzero unless
//
//   * the store opens, row counts match, and every query returns the
//     same match count as the linear baseline,
//   * the end-to-end speedup (sum over the query set, open/reload
//     included) is >= 5x,
//   * encoding is deterministic (same rows -> same bytes), and
//   * BENCH_s7.json survives round-trip JSON validation.
//
// Plus the segmented skip-scan sweep (zone maps + tenant/endpoint
// blooms): selective queries over a multi-segment store must run >= 5x
// faster with pruning on than off, prune a nonzero segment count, and
// return byte-identical matches either way.
// BENCH_s7.json splits open from scan: each rescan query records the
// time spent opening the store and mapping and validating its segment
// (open_ms), and each skip-scan query also runs once
// on a fresh reader, recording that open-inclusive time (cold_ms) and
// its share spent in Reader::open (cold_open_ms).
//
//   build/bench/s7_flowdb           # full query set
//   build/bench/s7_flowdb --smoke   # abbreviated CI pass (same gates)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/query.h"
#include "flowdb/store.h"
#include "obs/metrics.h"
#include "trace/flow_index.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace gq;

constexpr std::uint64_t kSeed = 0xF10DB;
constexpr std::size_t kFlows = 120'000;  // Gate demands >= 100k.
constexpr double kMinSpeedup = 5.0;
constexpr double kMinSkipSpeedup = 5.0;
constexpr std::size_t kSkipReps = 3;  // Timing reps per measurement.
constexpr std::int64_t kSlabUsec = 20'000'000;  // Per-segment time slab.

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::vector<trace::FlowRecord> synth_flows() {
  util::Rng rng(kSeed);
  const char* tenants[] = {"acme", "umbrella", "tyrell", "initech"};
  std::vector<trace::FlowRecord> flows;
  flows.reserve(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) {
    trace::FlowRecord record;
    record.key.proto =
        rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    record.key.src = {
        util::Ipv4Addr(10, 9, static_cast<std::uint8_t>(rng.below(64)),
                       static_cast<std::uint8_t>(rng.below(250) + 1)),
        static_cast<std::uint16_t>(1024 + rng.below(60000))};
    record.key.dst = {util::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                      static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
    record.vlan = static_cast<std::uint16_t>(100 + rng.below(32));
    record.tenant = tenants[rng.below(std::size(tenants))];
    record.job = rng.below(512) + 1;
    if (rng.chance(0.85)) {
      record.has_verdict = true;
      record.verdict = static_cast<shim::Verdict>(1 + rng.below(6));
      record.verdict_source = static_cast<shim::VerdictSource>(rng.below(3));
      record.policy_name =
          record.verdict == shim::Verdict::kDrop ? "quarantine" : "default";
    }
    record.packets = 1 + rng.below(200);
    record.bytes = record.packets * (60 + rng.below(1400));
    record.first_time.usec = static_cast<std::int64_t>(i) * 100;
    record.last_time.usec =
        record.first_time.usec + static_cast<std::int64_t>(rng.below(50000));
    record.locations.push_back({rng.below(16), rng.below(1u << 20)});
    flows.push_back(std::move(record));
  }
  return flows;
}

// --- The rescan baseline: a modelled text sidecar ---------------------------
//
// The pre-FlowDB answer path: the flow index as a tab-separated text
// file, one flow per line, reloaded in full (every field parsed, every
// record indexed) before each question. Saved archives no longer write
// such a file (their index is a FlowDB store), so this bench keeps its
// own writer and a reader that parses only what that writer emits.

bool write_text_sidecar(const std::string& path,
                        const std::vector<trace::FlowRecord>& flows) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const auto& f : flows) {
    out << (f.key.proto == pkt::FlowProto::kTcp ? "tcp" : "udp") << '\t'
        << f.key.src.addr.str() << '\t' << f.key.src.port << '\t'
        << f.key.dst.addr.str() << '\t' << f.key.dst.port << '\t' << f.vlan
        << '\t' << f.packets << '\t' << f.bytes << '\t'
        << f.first_time.usec << '\t' << f.last_time.usec << '\t'
        << (f.has_verdict ? shim::verdict_name(f.verdict) : "-") << '\t'
        << (f.has_verdict ? shim::verdict_source_name(f.verdict_source) : "-")
        << '\t' << (f.policy_name.empty() ? "-" : f.policy_name) << '\t'
        << (f.tenant.empty() ? "-" : f.tenant) << '\t' << f.job << '\t';
    for (std::size_t i = 0; i < f.locations.size(); ++i)
      out << (i ? "," : "") << f.locations[i].segment << ':'
          << f.locations[i].offset;
    out << '\n';
  }
  return static_cast<bool>(out);
}

/// Reload the sidecar into a flow index; nullopt on any line that is
/// not one write_text_sidecar emits.
std::optional<trace::FlowIndex> load_text_sidecar(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  trace::FlowIndex index;
  std::string line;
  while (std::getline(in, line)) {
    const auto f = util::split(line, '\t');
    if (f.size() != 16) return std::nullopt;
    trace::FlowRecord r;
    r.key.proto = f[0] == "tcp" ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    const auto src = util::Ipv4Addr::parse(f[1]);
    const auto dst = util::Ipv4Addr::parse(f[3]);
    const auto sport = util::parse_int(f[2]), dport = util::parse_int(f[4]);
    const auto vlan = util::parse_int(f[5]), packets = util::parse_int(f[6]);
    const auto bytes = util::parse_int(f[7]), first = util::parse_int(f[8]);
    const auto last = util::parse_int(f[9]), job = util::parse_int(f[14]);
    if (!src || !dst || !sport || !dport || !vlan || !packets || !bytes ||
        !first || !last || !job)
      return std::nullopt;
    r.key.src = {*src, static_cast<std::uint16_t>(*sport)};
    r.key.dst = {*dst, static_cast<std::uint16_t>(*dport)};
    r.vlan = static_cast<std::uint16_t>(*vlan);
    r.packets = static_cast<std::uint64_t>(*packets);
    r.bytes = static_cast<std::uint64_t>(*bytes);
    r.first_time.usec = *first;
    r.last_time.usec = *last;
    if (f[10] != "-") {
      std::uint32_t v = 1;
      while (v <= 6 && f[10] != shim::verdict_name(shim::Verdict(v))) ++v;
      const auto source = shim::verdict_source_from_name(f[11]);
      if (v > 6 || !source) return std::nullopt;
      r.has_verdict = true;
      r.verdict = shim::Verdict(v);
      r.verdict_source = *source;
    }
    if (f[12] != "-") r.policy_name = f[12];
    if (f[13] != "-") r.tenant = f[13];
    r.job = static_cast<std::uint64_t>(*job);
    for (const auto& pair : util::split(f[15], ',')) {
      const auto colon = pair.find(':');
      if (colon == std::string::npos) continue;
      const auto segment = util::parse_int(pair.substr(0, colon));
      const auto offset = util::parse_int(pair.substr(colon + 1));
      if (!segment || !offset) return std::nullopt;
      r.locations.push_back({static_cast<std::uint64_t>(*segment),
                             static_cast<std::uint64_t>(*offset)});
    }
    index.restore(std::move(r));
  }
  return index;
}

struct Query {
  const char* name;
  flowdb::Filter filter;
  std::function<bool(const trace::FlowRecord&)> baseline;
};

std::vector<Query> query_set(bool smoke) {
  std::vector<Query> queries;
  {
    Query q;
    q.name = "verdict=drop";
    q.filter.verdict = static_cast<std::uint8_t>(shim::Verdict::kDrop);
    q.baseline = [](const trace::FlowRecord& f) {
      return f.has_verdict && f.verdict == shim::Verdict::kDrop;
    };
    queries.push_back(std::move(q));
  }
  {
    Query q;
    q.name = "tenant=acme";
    q.filter.tenant = "acme";
    q.baseline = [](const trace::FlowRecord& f) { return f.tenant == "acme"; };
    queries.push_back(std::move(q));
  }
  {
    Query q;
    q.name = "port=80";
    q.filter.port = 80;
    q.baseline = [](const trace::FlowRecord& f) {
      return f.key.src.port == 80 || f.key.dst.port == 80;
    };
    queries.push_back(std::move(q));
  }
  if (smoke) return queries;
  {
    Query q;
    q.name = "prefix=10.9.7.0/24";
    const auto net = util::Ipv4Net(util::Ipv4Addr(10, 9, 7, 0), 24);
    q.filter.prefix = net;
    q.baseline = [net](const trace::FlowRecord& f) {
      return net.contains(f.key.src.addr) || net.contains(f.key.dst.addr);
    };
    queries.push_back(std::move(q));
  }
  {
    Query q;
    q.name = "window=2s..6s";
    q.filter.since_usec = 2'000'000;
    q.filter.until_usec = 6'000'000;
    q.baseline = [](const trace::FlowRecord& f) {
      return f.last_time.usec >= 2'000'000 && f.first_time.usec <= 6'000'000;
    };
    queries.push_back(std::move(q));
  }
  {
    Query q;
    q.name = "tenant=tyrell&verdict=rewrite";
    q.filter.tenant = "tyrell";
    q.filter.verdict = static_cast<std::uint8_t>(shim::Verdict::kRewrite);
    q.baseline = [](const trace::FlowRecord& f) {
      return f.tenant == "tyrell" && f.has_verdict &&
             f.verdict == shim::Verdict::kRewrite;
    };
    queries.push_back(std::move(q));
  }
  return queries;
}

// --- Segmented skip-scan sweep --------------------------------------------

/// One synthetic segment with every prunable dimension keyed off the
/// segment index (disjoint time slabs, one vlan per segment, tenants
/// striped index%6, per-segment endpoint /24s). The per-segment
/// endpoint pool is small (~264 addresses) so the 1 KiB bloom stays far
/// from saturation — the regime segment blooms are designed for: many
/// rows over a bounded dictionary, not unique addresses per row.
flowdb::Writer synth_segment(std::size_t index, std::size_t rows) {
  util::Rng rng(kSeed + 0x5E6 + index * 7919);
  flowdb::Writer writer;
  for (std::size_t i = 0; i < rows; ++i) {
    flowdb::Row row;
    row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    row.src = {util::Ipv4Addr(10, 20, static_cast<std::uint8_t>(index),
                              static_cast<std::uint8_t>(rng.below(200) + 1)),
               static_cast<std::uint16_t>(rng.range(1024, 65000))};
    row.dst = {util::Ipv4Addr(10, static_cast<std::uint8_t>(120 + index), 0,
                              static_cast<std::uint8_t>(rng.below(64) + 1)),
               static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
    row.vlan = static_cast<std::uint16_t>(200 + index);
    row.tenant = util::format("seg-t%zu", index % 6);
    row.job = index * 1000 + rng.below(16) + 1;
    row.verdict = static_cast<std::uint8_t>(1 + rng.below(6));
    row.source = static_cast<std::uint8_t>(rng.below(3));
    row.policy = "default";
    row.tap = "bench";
    row.packets = 1 + rng.below(200);
    row.bytes = row.packets * (60 + rng.below(1400));
    row.first_usec = static_cast<std::int64_t>(index) * kSlabUsec +
                     static_cast<std::int64_t>(i) * 1000;
    row.last_usec = row.first_usec + static_cast<std::int64_t>(rng.below(900));
    writer.add(std::move(row));
  }
  return writer;
}

/// Run the skip-scan sweep; returns false (gate failure) on any result
/// divergence, missing pruning, or insufficient speedup. Appends its
/// JSON object under the key "skip_scan".
bool skip_scan_sweep(util::JsonWriter& json) {
  // Deliberately NOT down-sized in smoke mode: the 5x timing gate needs
  // enough scan work that the fixed per-segment open cost on the
  // prune-on side can't dominate — a half-size sweep flakes the gate
  // under sanitizer instrumentation.
  const std::size_t segments = 16;
  const std::size_t seg_rows = 16384;

  const std::string seg_dir = "s7_segstore";
  std::error_code ec;
  std::filesystem::remove_all(seg_dir, ec);
  auto store = flowdb::SegmentedStore::open(seg_dir);
  if (!store) {
    std::fprintf(stderr, "s7: cannot open segmented store dir\n");
    return false;
  }
  for (std::size_t s = 0; s < segments; ++s) {
    if (!store->append_segment(synth_segment(s, seg_rows))) {
      std::fprintf(stderr, "s7: segment append failed\n");
      return false;
    }
  }
  auto reader = flowdb::SegmentedReader::open(seg_dir);
  if (!reader) {
    std::fprintf(stderr, "s7: cannot open segmented store\n");
    return false;
  }

  struct SkipQuery {
    const char* name;
    flowdb::Filter filter;
    // Whether the query participates in the speedup-gate totals. The
    // tenant probe doesn't: the dictionary short-circuit skips
    // non-matching segments even with pruning off, so both sides scan
    // the same rows and timing parity is the *expected* outcome — it
    // stays in the sweep for its correctness and pruned-count gates.
    bool timed = true;
  };
  std::vector<SkipQuery> queries;
  {
    SkipQuery q;
    q.name = "window(seg3)";
    q.filter.since_usec = 3 * kSlabUsec + 1'000'000;
    q.filter.until_usec = 3 * kSlabUsec + 4'000'000;
    queries.push_back(q);
  }
  {
    SkipQuery q;
    q.name = "tenant=seg-t2";
    q.filter.tenant = "seg-t2";
    q.timed = false;
    queries.push_back(q);
  }
  {
    SkipQuery q;
    q.name = "vlan=205";
    q.filter.vlan = 205;
    queries.push_back(q);
  }
  {
    SkipQuery q;
    q.name = "addr=10.124.0.9";  // dst /24 of segment 4.
    q.filter.endpoint = util::Ipv4Addr(10, 124, 0, 9);
    queries.push_back(q);
  }

  std::printf("\nskip-scan sweep: %zu segments x %zu rows\n", segments,
              seg_rows);
  std::printf("%-20s %9s %12s %12s %9s %8s %9s %9s\n", "query", "matches",
              "prune-off ms", "prune-on ms", "speedup", "pruned", "cold ms",
              "open ms");

  obs::MetricsRegistry metrics;
  json.key("skip_scan");
  json.begin_object();
  json.key("segments");
  json.value(static_cast<std::uint64_t>(segments));
  json.key("rows");
  json.value(static_cast<std::uint64_t>(segments * seg_rows));
  json.key("queries");
  json.begin_array();

  bool ok = true;
  double off_total_ms = 0.0, on_total_ms = 0.0;
  for (const auto& query : queries) {
    std::optional<std::vector<std::uint64_t>> off_matches, on_matches;
    flowdb::ScanStats stats;

    // Best-of-reps, not mean: the prune-on side is sub-millisecond, so
    // one scheduler preemption (sanitizer lanes, parallel ctest) would
    // dominate an average and flake the speedup gate.
    double off_ms = 0.0, on_ms = 0.0;
    flowdb::ScanOptions off_options;
    off_options.prune = false;
    for (std::size_t rep = 0; rep < kSkipReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      off_matches = reader->scan(query.filter, off_options);
      const double ms = ms_since(start);
      if (rep == 0 || ms < off_ms) off_ms = ms;
    }

    flowdb::ScanOptions on_options;
    on_options.stats = &stats;
    on_options.metrics = &metrics;
    for (std::size_t rep = 0; rep < kSkipReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      on_matches = reader->scan(query.filter, on_options);
      const double ms = ms_since(start);
      if (rep == 0 || ms < on_ms) on_ms = ms;
    }

    // Open-inclusive, as an analyst's fresh query pays it: a new reader
    // opens (and fully validates) every segment the planner keeps.
    flowdb::ScanStats cold;
    std::optional<std::vector<std::uint64_t>> cold_matches;
    if (auto fresh = flowdb::SegmentedReader::open(seg_dir)) {
      flowdb::ScanOptions cold_options;
      cold_options.stats = &cold;
      cold_matches = fresh->scan(query.filter, cold_options);
    }

    if (!off_matches || !on_matches || !cold_matches) {
      std::fprintf(stderr, "s7: %s segmented scan failed\n", query.name);
      return false;
    }
    if (*cold_matches != *on_matches) {
      std::fprintf(stderr, "s7: %s fresh-reader scan diverged\n",
                   query.name);
      ok = false;
    }
    if (*off_matches != *on_matches) {
      std::fprintf(stderr, "s7: %s pruned scan diverged from full scan\n",
                   query.name);
      ok = false;
    }
    if (on_matches->empty()) {
      std::fprintf(stderr, "s7: %s matched nothing (bad query keying)\n",
                   query.name);
      ok = false;
    }
    if (stats.segments_pruned == 0) {
      std::fprintf(stderr, "s7: %s pruned no segments\n", query.name);
      ok = false;
    }

    if (query.timed) {
      off_total_ms += off_ms;
      on_total_ms += on_ms;
    }
    const double speedup = on_ms > 0.0 ? off_ms / on_ms : 0.0;
    std::printf("%-20s %9zu %12.3f %12.3f %8.1fx %5llu/%zu %9.3f %9.3f\n",
                query.name, on_matches->size(), off_ms, on_ms, speedup,
                static_cast<unsigned long long>(stats.segments_pruned),
                segments, cold.wall_ms, cold.open_ms);
    json.begin_object();
    json.key("name");
    json.value(query.name);
    json.key("timed");
    json.value(query.timed);
    json.key("matches");
    json.value(static_cast<std::uint64_t>(on_matches->size()));
    json.key("prune_off_ms");
    json.value(off_ms);
    json.key("prune_on_ms");
    json.value(on_ms);
    json.key("segments_pruned");
    json.value(stats.segments_pruned);
    json.key("chunks_pruned");
    json.value(stats.chunks_pruned);
    json.key("cold_ms");
    json.value(cold.wall_ms);
    json.key("cold_open_ms");
    json.value(cold.open_ms);
    json.end_object();
  }
  json.end_array();

  // The pruning counters must have moved: nonzero skips reached the
  // metrics registry (the same counters live farms publish).
  const auto* pruned_ctr = metrics.find_counter("flowdb.scan.segments_pruned");
  if (!pruned_ctr || pruned_ctr->value() == 0) {
    std::fprintf(stderr, "s7: flowdb.scan.segments_pruned never moved\n");
    ok = false;
  }

  const double skip_speedup =
      on_total_ms > 0.0 ? off_total_ms / on_total_ms : 0.0;
  json.key("prune_off_total_ms");
  json.value(off_total_ms);
  json.key("prune_on_total_ms");
  json.value(on_total_ms);
  json.key("speedup");
  json.value(skip_speedup);
  json.key("min_speedup");
  json.value(kMinSkipSpeedup);
  const bool gate = ok && skip_speedup >= kMinSkipSpeedup;
  json.key("gate");
  json.value(gate ? "pass" : "fail");
  json.end_object();

  std::printf("skip-scan total: prune-off %.2f ms, prune-on %.2f ms -> "
              "%.1fx (gate >= %.1fx)\n",
              off_total_ms, on_total_ms, skip_speedup, kMinSkipSpeedup);
  if (ok && skip_speedup < kMinSkipSpeedup)
    std::fprintf(stderr, "s7: skip-scan speedup %.2fx below %.1fx floor\n",
                 skip_speedup, kMinSkipSpeedup);
  return gate;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  std::printf("s7 flowdb scan throughput (%s): %zu flows\n",
              smoke ? "smoke" : "full", kFlows);

  const auto flows = synth_flows();
  const std::string sidecar = "s7_flows.txt";
  const std::string store_dir = "s7_store";
  if (!write_text_sidecar(sidecar, flows)) {
    std::fprintf(stderr, "s7: cannot write the text sidecar\n");
    return 1;
  }

  // Seal into a fresh one-segment store. Determinism gate: same rows ->
  // same bytes.
  flowdb::Writer writer;
  for (const auto& flow : flows) writer.add(flowdb::row_from(flow, "bench"));
  if (writer.encode() != writer.encode()) {
    std::fprintf(stderr, "s7: encoding is not deterministic\n");
    return 1;
  }
  std::error_code store_ec;
  std::filesystem::remove_all(store_dir, store_ec);
  auto store = flowdb::SegmentedStore::open(store_dir);
  const auto compact_start = std::chrono::steady_clock::now();
  if (!store || !store->append_segment(writer)) {
    std::fprintf(stderr, "s7: cannot write %s\n", store_dir.c_str());
    return 1;
  }
  const double compact_ms = ms_since(compact_start);

  const auto queries = query_set(smoke);
  std::printf("\n%-28s %10s %12s %12s %10s %9s\n", "query", "matches",
              "baseline ms", "flowdb ms", "(open ms)", "speedup");

  util::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("s7_flowdb");
  json.key("smoke");
  json.value(smoke);
  json.key("flows");
  json.value(static_cast<std::uint64_t>(kFlows));
  json.key("store_bytes");
  json.value(store->manifest().total_bytes());
  json.key("compact_ms");
  json.value(compact_ms);
  json.key("queries");
  json.begin_array();

  double baseline_total_ms = 0.0, flowdb_total_ms = 0.0;
  bool ok = true;
  for (const auto& query : queries) {
    // Baseline: reload the text sidecar, then a per-flow predicate pass
    // — what answering this question cost before the store existed.
    const auto baseline_start = std::chrono::steady_clock::now();
    const auto index = load_text_sidecar(sidecar);
    std::size_t baseline_matches = 0;
    if (index) {
      for (const auto& flow : index->flows())
        if (query.baseline(flow)) ++baseline_matches;
    }
    const double baseline_ms = ms_since(baseline_start);
    if (!index || index->flow_count() != flows.size()) {
      std::fprintf(stderr, "s7: text sidecar reload failed\n");
      return 1;
    }

    // FlowDB: open the store, then a scan that maps and validates the
    // segment — cold each round for symmetry.
    const auto flowdb_start = std::chrono::steady_clock::now();
    auto reader = flowdb::SegmentedReader::open(store_dir);
    const double dir_open_ms = ms_since(flowdb_start);
    flowdb::ScanStats stats;
    flowdb::ScanOptions options;
    options.stats = &stats;
    const auto matches = reader ? reader->scan(query.filter, options)
                                : std::optional<std::vector<std::uint64_t>>();
    const double flowdb_ms = ms_since(flowdb_start);
    const double open_ms = dir_open_ms + stats.open_ms;
    if (!matches) {
      std::fprintf(stderr, "s7: cannot open or scan %s\n",
                   store_dir.c_str());
      return 1;
    }

    if (matches->size() != baseline_matches) {
      std::fprintf(stderr, "s7: %s disagreed (flowdb %zu vs baseline %zu)\n",
                   query.name, matches->size(), baseline_matches);
      ok = false;
    }

    baseline_total_ms += baseline_ms;
    flowdb_total_ms += flowdb_ms;
    const double speedup = flowdb_ms > 0.0 ? baseline_ms / flowdb_ms : 0.0;
    std::printf("%-28s %10zu %12.2f %12.3f %10.3f %8.1fx\n", query.name,
                matches->size(), baseline_ms, flowdb_ms, open_ms, speedup);
    json.begin_object();
    json.key("name");
    json.value(query.name);
    json.key("matches");
    json.value(static_cast<std::uint64_t>(matches->size()));
    json.key("baseline_ms");
    json.value(baseline_ms);
    json.key("flowdb_ms");
    json.value(flowdb_ms);
    json.key("open_ms");
    json.value(open_ms);
    json.end_object();
  }
  json.end_array();

  const bool skip_ok = skip_scan_sweep(json);

  const double speedup =
      flowdb_total_ms > 0.0 ? baseline_total_ms / flowdb_total_ms : 0.0;
  json.key("baseline_total_ms");
  json.value(baseline_total_ms);
  json.key("flowdb_total_ms");
  json.value(flowdb_total_ms);
  json.key("speedup");
  json.value(speedup);
  json.key("min_speedup");
  json.value(kMinSpeedup);
  const bool gate = ok && skip_ok && speedup >= kMinSpeedup;
  json.key("gate");
  json.value(gate ? "pass" : "fail");
  json.end_object();

  std::printf("\ntotal: baseline %.2f ms, flowdb %.2f ms -> %.1fx "
              "(gate >= %.1fx)\n",
              baseline_total_ms, flowdb_total_ms, speedup, kMinSpeedup);

  if (!util::json_valid(json.str())) {
    std::fprintf(stderr, "s7: generated BENCH_s7.json is not valid JSON\n");
    return 1;
  }
  {
    std::ofstream out("BENCH_s7.json", std::ios::binary | std::ios::trunc);
    out << json.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "s7: cannot write BENCH_s7.json\n");
      return 1;
    }
  }
  std::ifstream back("BENCH_s7.json", std::ios::binary);
  std::string reread((std::istreambuf_iterator<char>(back)),
                     std::istreambuf_iterator<char>());
  if (!util::json_valid(reread)) {
    std::fprintf(stderr, "s7: BENCH_s7.json failed round-trip validation\n");
    return 1;
  }
  std::printf("wrote BENCH_s7.json (validated)\n");

  if (!gate) {
    std::fprintf(stderr,
                 "s7: GATE FAILED (%s%s%s)\n",
                 !ok ? "result mismatch; " : "",
                 !skip_ok ? "skip-scan sweep failed; " : "",
                 speedup < kMinSpeedup ? "rescan speedup below floor" : "");
    return 1;
  }
  std::printf("s7 OK\n");
  return 0;
}

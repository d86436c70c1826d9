// flow_query: one analyst in a closed loop against a segmented FlowDB
// store. The run is a series of identical passes. Each pass builds the
// store afresh (16 segments of seeded rows in s7's skip-scan layout,
// ~20 MB; timed as set-up), then runs the seed's first 50 operations
// against it. Each query opens a fresh SegmentedReader (as every
// `gq_trace query` invocation does), scans with 2 threads under one of
// s7's ten canned queries with its constant re-drawn from the seed, and
// aggregates the matches by verdict (`gq_trace query`'s default grouping).
// Every 25th operation appends a new segment and compacts when the store
// holds more than 16 segments. Every query is checked against a
// brute-force pass over the rows the benchmark generated, and every pass
// must return what the first returned.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/query.h"
#include "flowdb/store.h"
#include "shim/shim.h"
#include "util/addr.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gq;

// Store shape of s7's skip-scan sweep (bench/s7_flowdb.cc).
constexpr std::size_t kSegments = 16;
constexpr std::size_t kRowsPerSegment = 16'384;
constexpr std::int64_t kSlabUsec = 20'000'000;  // One time slab per segment.
// Assumptions, not taken from any source: a live flush adds 1,000 rows,
// one operation in 25 is a flush, and the store compacts back to 16
// segments, so the store keeps its size while reads dominate.
constexpr std::size_t kAppendRows = 1'000;
constexpr int kAppendEvery = 25;
constexpr std::size_t kMaxSegments = 16;
constexpr int kOpsPerPass = 50;
constexpr int kMinPasses = 2;
// Store builds before the first pass, for more set-up samples.
constexpr int kExtraBuilds = 4;
constexpr unsigned kScanThreads = 2;

/// `count` rows of segment `index` in s7's skip-scan layout (synth_segment
/// in bench/s7_flowdb.cc): a disjoint time slab, one vlan, one tenant
/// (index % 6) and per-segment source and destination /24s, so time, vlan,
/// tenant and endpoint filters can prune whole segments; verdicts, verdict
/// sources and ports (80 or 25) are spread over every segment.
std::vector<flowdb::Row> make_rows(util::Rng& rng, std::size_t index,
                                   std::size_t count) {
  const auto net = static_cast<std::uint8_t>(index % 100);
  std::vector<flowdb::Row> rows(count);
  for (std::size_t i = 0; i < count; ++i) {
    flowdb::Row& row = rows[i];
    row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    row.src = {util::Ipv4Addr(10, 20, net,
                              static_cast<std::uint8_t>(rng.below(200) + 1)),
               static_cast<std::uint16_t>(rng.range(1024, 65000))};
    row.dst = {util::Ipv4Addr(10, static_cast<std::uint8_t>(120 + net), 0,
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
    row.locations.push_back({rng.below(16), rng.below(1u << 20)});
  }
  return rows;
}

bool matches(const flowdb::Row& r, const flowdb::Filter& f) {
  if (f.verdict && r.verdict != *f.verdict) return false;
  if (f.tenant && r.tenant != *f.tenant) return false;
  if (f.vlan && r.vlan != *f.vlan) return false;
  if (f.endpoint && r.src.addr != *f.endpoint && r.dst.addr != *f.endpoint)
    return false;
  if (f.prefix && !f.prefix->contains(r.src.addr) &&
      !f.prefix->contains(r.dst.addr))
    return false;
  if (f.port && r.src.port != *f.port && r.dst.port != *f.port) return false;
  if (f.since_usec && r.last_usec < *f.since_usec) return false;
  if (f.until_usec && r.first_usec > *f.until_usec) return false;
  return true;
}

std::string verdict_label(const flowdb::Row& r) {
  return r.verdict == 0
             ? "none"
             : shim::verdict_name(static_cast<shim::Verdict>(r.verdict));
}

/// Build the base store at `dir`: one segment per slab.
bool build_store(const std::string& dir,
                 const std::vector<std::vector<flowdb::Row>>& slabs) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto store = flowdb::SegmentedStore::open(dir);
  if (!store) return false;
  for (const auto& slab : slabs) {
    flowdb::Writer writer;
    for (const auto& row : slab) writer.add(row);
    SpanScope span("SegmentedStore::append_segment", "flowdb");
    if (!store->append_segment(writer)) return false;
  }
  return true;
}

/// Per-layer tallies of a traced pass.
struct QueryTally {
  std::uint64_t queries = 0;
  std::uint64_t segments_considered = 0;
  std::uint64_t segments_pruned = 0;
  std::uint64_t rows_scanned = 0;
};

/// The closed loop: the seeded operation sequence against the store at
/// `dir`, checking every query. Two loops built from the same seed over
/// identical stores run identical operations.
class QueryLoop {
 public:
  QueryLoop(std::uint64_t seed, std::string dir,
            const std::vector<std::vector<flowdb::Row>>& slabs)
      : rng_(mix_seed(seed, 11)),
        data_rng_(mix_seed(seed, 12)),
        dir_(std::move(dir)),
        store_(flowdb::SegmentedStore::open(dir_)),
        next_slab_(slabs.size()) {
    for (const auto& slab : slabs)
      rows_.insert(rows_.end(), slab.begin(), slab.end());
  }

  /// Run the next `n` operations; returns their measured wall seconds:
  /// the program's calls only, not the brute-force checks.
  double run(Result& res, int n, QueryTally* tally) {
    const double before = res.measured_wall_s;
    for (int i = 0; i < n; ++i) {
      ++res.attempted;
      if (++ops_ % kAppendEvery == 0)
        append(res);
      else
        query(res, tally);
    }
    return res.measured_wall_s - before;
  }

  /// Every operation's time so far (ms), and the queries' alone.
  [[nodiscard]] const std::vector<double>& op_ms() const { return op_ms_; }
  [[nodiscard]] const std::vector<double>& query_ms() const {
    return query_ms_;
  }
  /// Hash of every query's match and group counts: the work done.
  [[nodiscard]] std::uint64_t work_hash() const { return work_hash_; }

 private:
  void append(Result& res) {
    if (!store_) {
      res.wrong("flow_query: store does not open for appends");
      return;
    }
    flowdb::SegmentedStore& store = *store_;
    auto fresh = make_rows(data_rng_, next_slab_++, kAppendRows);
    flowdb::Writer writer;
    for (const auto& row : fresh) writer.add(row);
    const double wall0 = wall_s();
    const double cpu0 = cpu_s();
    bool ok = false;
    {
      SpanScope span("SegmentedStore::append_segment", "flowdb");
      ok = store.append_segment(writer);
    }
    if (ok && store.manifest().segments.size() > kMaxSegments) {
      SpanScope span("SegmentedStore::compact_segments", "flowdb");
      ok = store.compact_segments(kMaxSegments);
    }
    const double wall = wall_s() - wall0;
    res.measured_wall_s += wall;
    res.measured_cpu_s += cpu_s() - cpu0;
    op_ms_.push_back(wall * 1e3);
    if (!ok) {
      res.wrong("flow_query: append or compaction failed");
      return;
    }
    rows_.insert(rows_.end(), fresh.begin(), fresh.end());
  }

  /// One of s7's ten canned queries (bench/s7_flowdb.cc: its six-query
  /// column-store set and its four-query skip-scan set), dealt from a
  /// shuffled deck so every ten queries hold each exactly once, with the
  /// constant re-drawn from a segment of the current store.
  flowdb::Filter next_filter() {
    if (deck_pos_ == deck_.size()) {
      for (std::size_t i = deck_.size() - 1; i > 0; --i)
        std::swap(deck_[i], deck_[rng_.below(i + 1)]);
      deck_pos_ = 0;
    }
    flowdb::Filter f;
    const std::size_t index = rng_.below(next_slab_);
    const auto net = static_cast<std::uint8_t>(index % 100);
    const std::int64_t slab = static_cast<std::int64_t>(index) * kSlabUsec;
    const auto window = [&](std::int64_t len_usec) {
      f.since_usec = slab + static_cast<std::int64_t>(
                                rng_.below(kSlabUsec - len_usec));
      f.until_usec = *f.since_usec + len_usec;
    };
    const auto verdict = [&] {
      f.verdict = static_cast<std::uint8_t>(1 + rng_.below(6));
    };
    const std::string tenant = util::format("seg-t%zu", index % 6);
    switch (deck_[deck_pos_++]) {
      case 0: verdict(); break;                     // verdict=drop
      case 1: f.tenant = tenant; break;             // tenant=acme
      case 2:                                       // port=80
        f.port = static_cast<std::uint16_t>(rng_.chance(0.5) ? 80 : 25);
        break;
      case 3:                                       // prefix=10.9.7.0/24
        f.prefix = util::Ipv4Net(util::Ipv4Addr(10, 20, net, 0), 24);
        break;
      case 4: window(4'000'000); break;             // window=2s..6s
      case 5: f.tenant = tenant; verdict(); break;  // tenant=tyrell&verdict
      case 6: window(3'000'000); break;             // window(seg3)
      case 7: f.tenant = tenant; break;             // tenant=seg-t2
      case 8:                                       // vlan=205
        f.vlan = static_cast<std::uint16_t>(200 + index);
        break;
      default:                                      // addr=10.124.0.9
        f.endpoint = util::Ipv4Addr(
            10, static_cast<std::uint8_t>(120 + net), 0,
            static_cast<std::uint8_t>(rng_.below(64) + 1));
    }
    return f;
  }

  void query(Result& res, QueryTally* tally) {
    const flowdb::Filter filter = next_filter();
    flowdb::ScanStats stats;
    flowdb::ScanOptions scan_options;
    scan_options.threads = kScanThreads;
    scan_options.stats = &stats;
    std::optional<std::vector<std::uint64_t>> ids;
    std::optional<std::vector<flowdb::Agg>> aggs;
    const double cpu0 = cpu_s();
    {
      SpanScope span("query", "bench");
      std::optional<flowdb::SegmentedReader> reader;
      {
        SpanScope open_span("SegmentedReader::open", "flowdb");
        reader = flowdb::SegmentedReader::open(dir_);
      }
      if (reader) {
        {
          SpanScope scan_span("SegmentedReader::scan", "flowdb");
          ids = reader->scan(filter, scan_options);
        }
        if (ids) {
          SpanScope agg_span("SegmentedReader::aggregate", "flowdb");
          aggs = reader->aggregate(*ids, flowdb::GroupBy::kVerdict);
        }
      }
      reader.reset();  // The query includes closing the store.
      const double ms = span.elapsed_ms();
      op_ms_.push_back(ms);
      query_ms_.push_back(ms);
      res.measured_wall_s += ms / 1e3;
    }
    res.measured_cpu_s += cpu_s() - cpu0;
    if (tally) {
      ++tally->queries;
      tally->segments_considered += stats.segments_considered;
      tally->segments_pruned += stats.segments_pruned;
      tally->rows_scanned += stats.rows_scanned;
    }
    SpanScope check_span("check", "bench");
    if (!ids || !aggs) {
      res.wrong("flow_query: store failed to open, scan or aggregate");
      return;
    }
    std::vector<std::uint64_t> want;
    std::map<std::string, flowdb::Agg> buckets;
    for (std::uint64_t i = 0; i < rows_.size(); ++i) {
      if (!matches(rows_[i], filter)) continue;
      want.push_back(i);
      flowdb::Agg& agg = buckets[verdict_label(rows_[i])];
      ++agg.flows;
      agg.packets += rows_[i].packets;
      agg.bytes += rows_[i].bytes;
    }
    std::vector<flowdb::Agg> want_aggs;
    for (auto& [label, agg] : buckets) {
      agg.label = label;
      want_aggs.push_back(agg);
    }
    if (*ids != want || *aggs != want_aggs)
      res.wrong(util::format(
          "flow_query: query returned %zu rows, brute force %zu", ids->size(),
          want.size()));
    work_hash_ = fnv1a(util::format("%zu/%zu;", ids->size(), aggs->size()),
                       work_hash_);
  }

  util::Rng rng_;       // Operation sequence.
  util::Rng data_rng_;  // Appended rows.
  std::string dir_;
  std::optional<flowdb::SegmentedStore> store_;  // Appends.
  std::size_t next_slab_;
  int ops_ = 0;
  std::vector<int> deck_ = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::size_t deck_pos_ = deck_.size();
  std::vector<double> op_ms_;
  std::vector<double> query_ms_;
  std::uint64_t work_hash_ = fnv1a("");
  std::vector<flowdb::Row> rows_;  // Every row, in global row order.
};

}  // namespace

Result run_flow_query(const Options& options) {
  Result res;
  util::Rng data_rng(mix_seed(options.seed, 10));
  std::vector<std::vector<flowdb::Row>> slabs;
  for (std::size_t s = 0; s < kSegments; ++s)
    slabs.push_back(make_rows(data_rng, s, kRowsPerSegment));

  const std::string dir = options.work_dir + "/flow_query-store";
  const auto build = [&] {
    const double t0 = wall_s();
    const bool ok = build_store(dir, slabs);
    res.setup_s.add(wall_s() - t0);
    if (!ok) res.wrong("flow_query: store build failed");
    return ok;
  };
  for (int b = 0; b < kExtraBuilds; ++b)
    if (!build()) return res;

  // One pass over the store `build` left: its measured wall seconds.
  std::optional<std::uint64_t> first_hash;
  const auto pass = [&](QueryTally* tally) {
    QueryLoop loop(options.seed, dir, slabs);
    const double wall = loop.run(res, kOpsPerPass, tally);
    res.units_per_repetition = static_cast<double>(loop.query_ms().size());
    if (!res.op_ms.add(loop.op_ms()) || !res.latency_ms.add(loop.query_ms()))
      res.wrong("flow_query: a pass ran another number of operations");
    if (!first_hash) {
      first_hash = loop.work_hash();
      std::printf("round work: %d operations, query hash=%016llx\n",
                  kOpsPerPass, static_cast<unsigned long long>(*first_hash));
    } else if (loop.work_hash() != first_hash) {
      res.wrong("flow_query: a pass returned other results than the first");
    }
    // Read at a fixed point: appended rows grow the footprint with time.
    if (res.peak_rss_mb == 0.0) res.peak_rss_mb = peak_rss_mb();
    res.host.sample(res.measured_wall_s);
    return wall;
  };

  if (!options.trace) {
    int passes = 0;
    while (res.measured_wall_s < options.seconds || passes < kMinPasses) {
      if (!build()) return res;
      pass(nullptr);
      ++passes;
    }
  } else {
    // Untraced and traced passes alternate, so both halves of the overhead
    // comparison see the same machine conditions. Stores are built with
    // recording off: their appends are set-up, not live flushes.
    QueryTally tally;
    Tracer& tracer = Tracer::get();
    tracer.set_run_id(util::format(
        "flow_query-seed%llu-%lld", static_cast<unsigned long long>(options.seed),
        static_cast<long long>(tracer.now_ns())));
    while (res.untraced_wall_s < options.seconds / 2) {
      if (!build()) return res;
      res.untraced_wall_s += pass(nullptr);
      if (!build()) return res;
      tracer.start();
      res.traced_wall_s += pass(&tally);
      tracer.stop();
    }
    tracer.start();
    // Per-segment validation cost, which SegmentedReader pays lazily
    // inside scan where the benchmark cannot time it.
    if (auto reader = flowdb::SegmentedReader::open(dir)) {
      for (const auto& info : reader->manifest().segments) {
        SpanScope span("Reader::open", "flowdb");
        if (!flowdb::Reader::open(dir + "/" + info.file))
          res.wrong("flow_query: a segment fails Reader::open");
      }
    }
    tracer.stop();

    std::map<std::string, Samples> by_name;
    for (const Span& s : tracer.collect())
      by_name[s.name].add(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    const auto p50 = [&](const char* name) {
      const auto it = by_name.find(name);
      return it == by_name.end() ? 0.0 : it->second.median();
    };
    res.layer["flowdb.open_ms_p50"] = p50("SegmentedReader::open");
    res.layer["flowdb.reader_open_ms_p50"] = p50("Reader::open");
    res.layer["flowdb.scan_ms_p50"] = p50("SegmentedReader::scan");
    res.layer["flowdb.aggregate_ms_p50"] = p50("SegmentedReader::aggregate");
    res.layer["flowdb.append_ms_p50"] = p50("SegmentedStore::append_segment");
    res.layer["flowdb.compact_ms_p50"] = p50("SegmentedStore::compact_segments");
    res.layer["flowdb.prune_ratio"] =
        tally.segments_considered
            ? static_cast<double>(tally.segments_pruned) /
                  static_cast<double>(tally.segments_considered)
            : 0.0;
    res.layer["flowdb.rows_scanned_per_query"] =
        tally.queries ? static_cast<double>(tally.rows_scanned) /
                            static_cast<double>(tally.queries)
                      : 0.0;
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return res;
}

}  // namespace perfbench

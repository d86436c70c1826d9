#include "flowdb/query.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "flowdb/scan_impl.h"
#include "shim/shim.h"

namespace gq::flowdb {

using detail::CompiledFilter;
using detail::RowPredicate;
using detail::ScanTask;

void ScanStats::add_to(obs::MetricsRegistry& metrics) const {
  metrics.counter("flowdb.scan.segments_considered").inc(segments_considered);
  metrics.counter("flowdb.scan.segments_pruned").inc(segments_pruned);
  metrics.counter("flowdb.scan.segments_scanned").inc(segments_scanned);
  metrics.counter("flowdb.scan.chunks_pruned").inc(chunks_pruned);
  metrics.counter("flowdb.scan.chunks_scanned").inc(chunks_scanned);
  metrics.counter("flowdb.scan.rows_scanned").inc(rows_scanned);
  metrics.counter("flowdb.scan.rows_matched").inc(rows_matched);
  metrics.counter("flowdb.scan.open_us")
      .inc(static_cast<std::uint64_t>(open_ms * 1000.0));
}

bool zone_may_match(const ZoneMap& zone, const Filter& filter) {
  // An empty segment matches nothing; the min/max fields hold empty-
  // range sentinels in that case and must not be consulted.
  if (zone.row_count == 0) return false;
  // Row time predicate: last >= since && first <= until. Prunable when
  // no row can pass — max(last) < since, or min(first) > until.
  if (filter.since_usec && zone.max_last_usec < *filter.since_usec)
    return false;
  if (filter.until_usec && zone.min_first_usec > *filter.until_usec)
    return false;
  if (filter.vlan &&
      (*filter.vlan < zone.min_vlan || *filter.vlan > zone.max_vlan))
    return false;
  // Port range spans both sides, matching the either-side predicate.
  if (filter.port &&
      (*filter.port < zone.min_port || *filter.port > zone.max_port))
    return false;
  if (filter.tenant &&
      !bloom_may_contain(zone.bloom, bloom_key_tenant(*filter.tenant)))
    return false;
  if (filter.endpoint &&
      !bloom_may_contain(zone.bloom,
                         bloom_key_endpoint(filter.endpoint->value())))
    return false;
  return true;
}

bool chunk_may_match(const ChunkZone& zone, const Filter& filter) {
  if (filter.since_usec && zone.max_last_usec < *filter.since_usec)
    return false;
  if (filter.until_usec && zone.min_first_usec > *filter.until_usec)
    return false;
  return true;
}

namespace detail {

std::vector<std::vector<std::uint64_t>> run_tasks(
    std::span<const RowPredicate> preds, std::span<const ScanTask> tasks,
    unsigned thread_opt) {
  // Task t belongs to worker (t % threads); per-task match lists are
  // concatenated in task (== segment, chunk) order afterwards, so the
  // output is identical to the serial scan regardless of thread count.
  std::vector<std::vector<std::uint64_t>> per_task(tasks.size());
  const auto run_one = [&](std::size_t t) {
    const ScanTask& task = tasks[t];
    const RowPredicate& pred = preds[task.pred];
    auto& out = per_task[t];
    for (std::uint64_t i = task.begin; i < task.end; ++i)
      if (pred(i)) out.push_back(task.base + i);
  };
  const unsigned threads = static_cast<unsigned>(std::min<std::size_t>(
      std::max(1u, thread_opt), tasks.size()));
  if (threads <= 1) {
    for (std::size_t t = 0; t < tasks.size(); ++t) run_one(t);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t t = w; t < tasks.size(); t += threads) run_one(t);
      });
    }
    for (auto& worker : workers) worker.join();
  }
  return per_task;
}

}  // namespace detail

std::vector<std::uint64_t> scan(const Reader& reader, const Filter& filter,
                                const ScanOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t n = reader.rows();
  ScanStats local;
  ScanStats& stats = options.stats ? *options.stats : local;
  stats = {};
  stats.segments_considered = 1;

  std::vector<std::uint64_t> matches;
  const CompiledFilter cf = detail::compile(reader, filter);
  if (options.prune && !zone_may_match(reader.zone(), filter)) {
    stats.segments_pruned = 1;
  } else if (!cf.impossible && n > 0) {
    stats.segments_scanned = 1;
    const RowPredicate pred(reader, cf);
    const auto chunk_zones = reader.chunk_zones();
    std::vector<ScanTask> tasks;
    tasks.reserve(chunk_zones.size());
    for (std::uint64_t c = 0; c < chunk_zones.size(); ++c) {
      if (options.prune && !chunk_may_match(chunk_zones[c], filter)) {
        ++stats.chunks_pruned;
        continue;
      }
      const std::uint64_t begin = c * kScanChunk;
      const std::uint64_t end = std::min(n, begin + kScanChunk);
      tasks.push_back({0, 0, begin, end});
      ++stats.chunks_scanned;
      stats.rows_scanned += end - begin;
    }
    const auto per_task =
        detail::run_tasks({&pred, 1}, tasks, options.threads);
    for (const auto& chunk : per_task)
      matches.insert(matches.end(), chunk.begin(), chunk.end());
  }
  stats.rows_matched = matches.size();
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (options.metrics) {
    options.metrics->counter("flowdb.scans").inc();
    options.metrics->counter("flowdb.rows_scanned").inc(stats.rows_scanned);
    options.metrics->counter("flowdb.rows_matched").inc(matches.size());
    stats.add_to(*options.metrics);
  }
  return matches;
}

std::vector<Agg> aggregate(const Reader& reader,
                           std::span<const std::uint64_t> rows,
                           GroupBy group) {
  const auto verdicts = reader.verdict();
  const auto tenants = reader.tenant();
  const auto policies = reader.policy();
  const auto taps = reader.tap();
  const auto packets = reader.packets();
  const auto bytes = reader.bytes();
  const auto label_of = [&](std::uint64_t i) -> std::string {
    switch (group) {
      case GroupBy::kVerdict:
        return verdicts[i] == 0
                   ? "none"
                   : shim::verdict_name(
                         static_cast<shim::Verdict>(verdicts[i]));
      case GroupBy::kTenant: {
        const auto name = reader.dict(tenants[i]);
        return name.empty() ? "-" : std::string(name);
      }
      case GroupBy::kPolicy: {
        const auto name = reader.dict(policies[i]);
        return name.empty() ? "-" : std::string(name);
      }
      case GroupBy::kTap: {
        const auto name = reader.dict(taps[i]);
        return name.empty() ? "-" : std::string(name);
      }
    }
    return "?";
  };
  std::map<std::string, Agg> buckets;  // map: label-sorted for free.
  for (const std::uint64_t i : rows) {
    if (i >= reader.rows()) continue;
    Agg& bucket = buckets[label_of(i)];
    bucket.flows += 1;
    bucket.packets += packets[i];
    bucket.bytes += bytes[i];
  }
  std::vector<Agg> out;
  out.reserve(buckets.size());
  for (auto& [label, bucket] : buckets) {
    bucket.label = label;
    out.push_back(std::move(bucket));
  }
  return out;
}

std::vector<Agg> aggregate_all(const Reader& reader, GroupBy group) {
  std::vector<std::uint64_t> all(reader.rows());
  for (std::uint64_t i = 0; i < all.size(); ++i) all[i] = i;
  return aggregate(reader, all, group);
}

VerdictDiff diff_verdicts(const Reader& a, const Reader& b) {
  const auto counts_of = [](const Reader& reader) {
    std::map<std::string, std::uint64_t> counts;
    for (const auto& agg : aggregate_all(reader, GroupBy::kVerdict))
      counts[agg.label] = agg.flows;
    return counts;
  };
  const auto counts_a = counts_of(a);
  const auto counts_b = counts_of(b);
  VerdictDiff diff;
  diff.rows_a = a.rows();
  diff.rows_b = b.rows();
  std::map<std::string, VerdictDiff::Entry> merged;
  for (const auto& [label, count] : counts_a) {
    merged[label].label = label;
    merged[label].count_a = count;
  }
  for (const auto& [label, count] : counts_b) {
    merged[label].label = label;
    merged[label].count_b = count;
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

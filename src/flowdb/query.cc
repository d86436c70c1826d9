#include "flowdb/query.h"

#include "flowdb/scan_impl.h"
#include "shim/shim.h"

namespace gq::flowdb {

void ScanStats::add_to(obs::MetricsRegistry& metrics) const {
  metrics.counter("flowdb.scans").inc();
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

void aggregate_into(const Reader& reader, std::span<const std::uint64_t> rows,
                    GroupBy group, std::map<std::string, Agg>& buckets) {
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
  for (const std::uint64_t i : rows) {
    if (i >= reader.rows()) continue;
    Agg& bucket = buckets[label_of(i)];
    bucket.flows += 1;
    bucket.packets += packets[i];
    bucket.bytes += bytes[i];
  }
}

}  // namespace detail

}  // namespace gq::flowdb

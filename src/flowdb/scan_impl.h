// Internal per-segment scan and aggregation kernels behind
// SegmentedReader (store.cc). Not part of the public FlowDB API —
// include store.h instead.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/query.h"

namespace gq::flowdb::detail {

/// A Filter with its string predicates resolved against one store's
/// dictionary. `impossible` short-circuits the scan when a requested
/// name does not exist in the store at all. Dictionary ids are
/// per-segment — a segmented scan compiles once per surviving segment.
struct CompiledFilter {
  const Filter* filter = nullptr;
  bool impossible = false;
  std::optional<std::uint32_t> tenant_id;
  std::optional<std::uint32_t> policy_id;
  std::optional<std::uint32_t> tap_id;
};

inline CompiledFilter compile(const Reader& reader, const Filter& filter) {
  CompiledFilter cf;
  cf.filter = &filter;
  const auto resolve = [&](const std::optional<std::string>& name,
                           std::optional<std::uint32_t>& id) {
    if (!name) return;
    id = reader.dict_id(*name);
    if (!id) cf.impossible = true;
  };
  resolve(filter.tenant, cf.tenant_id);
  resolve(filter.policy, cf.policy_id);
  resolve(filter.tap, cf.tap_id);
  return cf;
}

/// Evaluate the conjunction for one row. Columns are captured once per
/// segment; this runs over typed spans straight from the mapping.
struct RowPredicate {
  CompiledFilter cf;
  std::span<const std::uint8_t> proto;
  std::span<const std::uint32_t> src_addr;
  std::span<const std::uint16_t> src_port;
  std::span<const std::uint32_t> dst_addr;
  std::span<const std::uint16_t> dst_port;
  std::span<const std::uint16_t> vlan;
  std::span<const std::uint32_t> tenant;
  std::span<const std::uint64_t> job;
  std::span<const std::uint8_t> verdict;
  std::span<const std::uint8_t> source;
  std::span<const std::uint32_t> policy;
  std::span<const std::uint32_t> tap;
  std::span<const std::int64_t> first;
  std::span<const std::int64_t> last;

  RowPredicate(const Reader& reader, CompiledFilter compiled)
      : cf(compiled),
        proto(reader.proto()),
        src_addr(reader.src_addr()),
        src_port(reader.src_port()),
        dst_addr(reader.dst_addr()),
        dst_port(reader.dst_port()),
        vlan(reader.vlan()),
        tenant(reader.tenant()),
        job(reader.job()),
        verdict(reader.verdict()),
        source(reader.verdict_source()),
        policy(reader.policy()),
        tap(reader.tap()),
        first(reader.first_usec()),
        last(reader.last_usec()) {}

  [[nodiscard]] bool operator()(std::uint64_t i) const {
    const Filter& f = *cf.filter;
    if (f.verdict && verdict[i] != *f.verdict) return false;
    if (f.source && (verdict[i] == 0 || source[i] != *f.source))
      return false;
    if (cf.tenant_id && tenant[i] != *cf.tenant_id) return false;
    if (cf.policy_id && policy[i] != *cf.policy_id) return false;
    if (cf.tap_id && tap[i] != *cf.tap_id) return false;
    if (f.job && job[i] != *f.job) return false;
    if (f.vlan && vlan[i] != *f.vlan) return false;
    if (f.proto && proto[i] != static_cast<std::uint8_t>(*f.proto))
      return false;
    if (f.endpoint) {
      const std::uint32_t want = f.endpoint->value();
      if (src_addr[i] != want && dst_addr[i] != want) return false;
    }
    if (f.prefix && !f.prefix->contains(util::Ipv4Addr(src_addr[i])) &&
        !f.prefix->contains(util::Ipv4Addr(dst_addr[i])))
      return false;
    if (f.port && src_port[i] != *f.port && dst_port[i] != *f.port)
      return false;
    if (f.since_usec && last[i] < *f.since_usec) return false;
    if (f.until_usec && first[i] > *f.until_usec) return false;
    return true;
  }
};

/// Add one segment's local row ids to the label-keyed `buckets`
/// (ids past the segment's end are skipped; Agg::label is left unset).
void aggregate_into(const Reader& reader, std::span<const std::uint64_t> rows,
                    GroupBy group, std::map<std::string, Agg>& buckets);

}  // namespace gq::flowdb::detail

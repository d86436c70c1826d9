#include "trace/flow_index.h"

#include <sstream>

#include "util/addr.h"
#include "util/strings.h"

namespace gq::trace {

FlowRecord* FlowIndex::lookup(const pkt::FlowKey& key, std::uint16_t vlan) {
  if (auto it = by_key_.find({key, vlan}); it != by_key_.end())
    return &flows_[it->second];
  if (auto it = by_key_.find({key.reversed(), vlan}); it != by_key_.end())
    return &flows_[it->second];
  return nullptr;
}

FlowRecord& FlowIndex::touch(const pkt::FlowKey& key, std::uint16_t vlan,
                             util::TimePoint at, std::size_t frame_bytes,
                             Location loc) {
  FlowRecord* record = lookup(key, vlan);
  if (!record) {
    FlowRecord fresh;
    fresh.key = key;
    fresh.vlan = vlan;
    fresh.first_time = at;
    flows_.push_back(std::move(fresh));
    by_key_[{key, vlan}] = flows_.size() - 1;
    record = &flows_.back();
  }
  ++record->packets;
  record->bytes += frame_bytes;
  record->last_time = at;
  record->locations.push_back(loc);
  return *record;
}

bool FlowIndex::annotate(const pkt::FlowKey& key, std::uint16_t vlan,
                         shim::Verdict verdict,
                         const std::string& policy_name,
                         shim::VerdictSource source) {
  FlowRecord* record = lookup(key, vlan);
  if (!record) return false;
  record->has_verdict = true;
  record->verdict = verdict;
  record->policy_name = policy_name;
  record->verdict_source = source;
  return true;
}

const FlowRecord* FlowIndex::find(const pkt::FlowKey& key,
                                  std::uint16_t vlan) const {
  return const_cast<FlowIndex*>(this)->lookup(key, vlan);
}

void FlowIndex::restore(FlowRecord record) {
  const MapKey map_key{record.key, record.vlan};
  flows_.push_back(std::move(record));
  by_key_[map_key] = flows_.size() - 1;
}

namespace {

std::optional<shim::Verdict> verdict_from_name(std::string_view name) {
  for (const auto v :
       {shim::Verdict::kForward, shim::Verdict::kLimit, shim::Verdict::kDrop,
        shim::Verdict::kRedirect, shim::Verdict::kReflect,
        shim::Verdict::kRewrite}) {
    if (name == shim::verdict_name(v)) return v;
  }
  return std::nullopt;
}

/// parse_int with an inclusive range gate; nullopt rejects the line.
std::optional<std::int64_t> parse_ranged(std::string_view text,
                                         std::int64_t lo, std::int64_t hi) {
  const auto value = util::parse_int(text);
  if (!value || *value < lo || *value > hi) return std::nullopt;
  return value;
}

}  // namespace

std::string flow_record_line(const FlowRecord& record) {
  std::ostringstream line;
  line << "flow\t"
       << (record.key.proto == pkt::FlowProto::kTcp ? "tcp" : "udp") << '\t'
       << record.key.src.addr.str() << '\t' << record.key.src.port << '\t'
       << record.key.dst.addr.str() << '\t' << record.key.dst.port << '\t'
       << record.vlan << '\t' << record.packets << '\t' << record.bytes
       << '\t' << record.first_time.usec << '\t' << record.last_time.usec
       << '\t'
       << (record.has_verdict ? shim::verdict_name(record.verdict) : "-")
       << '\t' << (record.policy_name.empty() ? "-" : record.policy_name)
       << '\t';
  for (std::size_t i = 0; i < record.locations.size(); ++i) {
    if (i) line << ',';
    line << record.locations[i].segment << ':' << record.locations[i].offset;
  }
  // Trailing columns, append-only for backward compatibility: verdict
  // source, then tenant/job attribution.
  line << '\t'
       << (record.has_verdict ? shim::verdict_source_name(record.verdict_source)
                              : "-")
       << '\t' << (record.tenant.empty() ? "-" : record.tenant) << '\t'
       << record.job;
  return line.str();
}

std::optional<FlowRecord> parse_flow_record_line(std::string_view line) {
  const auto fields = util::split(line, '\t');
  // Mandatory columns run through `policy` (index 12); everything after
  // is optional so older archives still load.
  if (fields.size() < 13 || fields[0] != "flow") return std::nullopt;

  FlowRecord record;
  if (fields[1] == "tcp") {
    record.key.proto = pkt::FlowProto::kTcp;
  } else if (fields[1] == "udp") {
    record.key.proto = pkt::FlowProto::kUdp;
  } else {
    return std::nullopt;
  }
  const auto src = util::Ipv4Addr::parse(fields[2]);
  const auto src_port = parse_ranged(fields[3], 0, 0xFFFF);
  const auto dst = util::Ipv4Addr::parse(fields[4]);
  const auto dst_port = parse_ranged(fields[5], 0, 0xFFFF);
  const auto vlan = parse_ranged(fields[6], 0, 0xFFFF);
  const auto packets = util::parse_int(fields[7]);
  const auto bytes = util::parse_int(fields[8]);
  const auto first = util::parse_int(fields[9]);
  const auto last = util::parse_int(fields[10]);
  if (!src || !src_port || !dst || !dst_port || !vlan || !packets ||
      *packets < 0 || !bytes || *bytes < 0 || !first || !last)
    return std::nullopt;
  record.key.src = {*src, static_cast<std::uint16_t>(*src_port)};
  record.key.dst = {*dst, static_cast<std::uint16_t>(*dst_port)};
  record.vlan = static_cast<std::uint16_t>(*vlan);
  record.packets = static_cast<std::uint64_t>(*packets);
  record.bytes = static_cast<std::uint64_t>(*bytes);
  record.first_time.usec = *first;
  record.last_time.usec = *last;
  if (fields[11] != "-") {
    // Unknown verdict names degrade to "no verdict" rather than
    // rejecting the whole line (a future verdict kind must not make
    // old readers drop the flow's counters).
    if (const auto v = verdict_from_name(fields[11])) {
      record.has_verdict = true;
      record.verdict = *v;
    }
  }
  if (fields[12] != "-") record.policy_name = fields[12];
  if (fields.size() > 13 && !fields[13].empty()) {
    // Malformed pairs are skipped, not fatal: a partially rotten
    // location list still leaves the flow extractable elsewhere.
    for (const auto& pair : util::split(fields[13], ',')) {
      const auto colon = pair.find(':');
      if (colon == std::string::npos) continue;
      const auto segment = util::parse_int(
          std::string_view(pair).substr(0, colon));
      const auto offset = util::parse_int(
          std::string_view(pair).substr(colon + 1));
      if (!segment || *segment < 0 || !offset || *offset < 0) continue;
      record.locations.push_back({static_cast<std::uint64_t>(*segment),
                                  static_cast<std::uint64_t>(*offset)});
    }
  }
  if (fields.size() > 14 && record.has_verdict) {
    // A corrupt source token must not be read as "shim": that would
    // misattribute the verdict's datapath downstream.
    const auto source = shim::verdict_source_from_name(fields[14]);
    if (!source) return std::nullopt;
    record.verdict_source = *source;
  }
  if (fields.size() > 15 && fields[15] != "-") record.tenant = fields[15];
  if (fields.size() > 16) {
    if (const auto job = util::parse_int(fields[16]); job && *job >= 0)
      record.job = static_cast<std::uint64_t>(*job);
  }
  return record;
}

}  // namespace gq::trace

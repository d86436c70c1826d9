#include "shim/table_sync.h"

#include <limits>
#include <stdexcept>

#include "util/bytes.h"

namespace gq::shim {

const char* table_action_name(TableAction action) {
  switch (action) {
    case TableAction::kForward: return "FORWARD";
    case TableAction::kDrop: return "DROP";
    case TableAction::kLimit: return "LIMIT";
    case TableAction::kRedirect: return "REDIRECT";
    case TableAction::kReflect: return "REFLECT";
    case TableAction::kFallback: return "FALLBACK";
  }
  return "?";
}

std::optional<ResponseShim> table_rule_verdict(const TableRule& rule,
                                               util::Endpoint orig,
                                               util::Endpoint orig_dst) {
  ResponseShim shim;
  shim.orig = orig;
  shim.resp = orig_dst;
  shim.policy_name = rule.policy_name;
  shim.annotation = rule.annotation;
  switch (rule.action) {
    case TableAction::kForward:
      shim.verdict = Verdict::kForward;
      break;
    case TableAction::kDrop:
      shim.verdict = Verdict::kDrop;
      break;
    case TableAction::kLimit:
      shim.verdict = Verdict::kLimit;
      if (rule.limit_bytes_per_sec > 0) {
        shim.limit_bytes_per_sec =
            static_cast<std::int64_t>(rule.limit_bytes_per_sec);
      }
      break;
    case TableAction::kRedirect:
      shim.verdict = Verdict::kRedirect;
      shim.resp = rule.target;
      break;
    case TableAction::kReflect:
      shim.verdict = Verdict::kReflect;
      shim.resp = rule.target;
      break;
    case TableAction::kFallback:
      return std::nullopt;
  }
  return shim;
}

namespace {

constexpr std::uint32_t prefix_mask(std::uint8_t len) {
  return len == 0 ? 0 : 0xFFFFFFFFu << (32 - len);
}

}  // namespace

bool TableRule::matches(std::uint16_t vlan, std::uint8_t flow_proto,
                        const util::Endpoint& dst) const {
  if (vlan < vlan_first || vlan > vlan_last) return false;
  if (proto != kProtoAny && proto != flow_proto) return false;
  if ((dst.addr.value() & prefix_mask(prefix_len)) !=
      (dst_prefix.value() & prefix_mask(prefix_len)))
    return false;
  return dst.port >= port_first && dst.port <= port_last;
}

std::vector<std::uint8_t> TableSync::encode() const {
  std::size_t total = kTableSyncHeaderSize;
  for (const auto& rule : rules)
    total += kTableRuleFixedSize + rule.annotation.size();
  if (rules.size() > std::numeric_limits<std::uint16_t>::max() ||
      total > std::numeric_limits<std::uint16_t>::max())
    throw std::length_error("table-sync frame exceeds u16 length field");
  util::ByteWriter w(total);
  w.u32(kShimMagic);
  w.u16(static_cast<std::uint16_t>(total));
  w.u8(kTypeTableSync);
  w.u8(kShimVersionV4);
  w.u64(epoch);
  w.u16(static_cast<std::uint16_t>(rules.size()));
  w.u16(0);
  for (const auto& rule : rules) {
    w.u16(rule.vlan_first);
    w.u16(rule.vlan_last);
    w.u32(rule.dst_prefix.value());
    w.u8(rule.prefix_len);
    w.u8(rule.proto);
    w.u8(static_cast<std::uint8_t>(rule.action));
    w.u8(0);
    w.u16(rule.priority);
    w.u16(rule.port_first);
    w.u16(rule.port_last);
    w.u16(static_cast<std::uint16_t>(rule.annotation.size()));
    w.u32(rule.target.addr.value());
    w.u16(rule.target.port);
    w.u16(0);
    w.u64(rule.limit_bytes_per_sec);
    std::string name = rule.policy_name;
    name.resize(kPolicyNameSize, '\0');
    w.str(name);
    w.str(rule.annotation);
  }
  return w.take();
}

std::optional<TableSync> TableSync::parse(
    std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    if (r.remaining() < kTableSyncHeaderSize) return std::nullopt;
    if (r.u32() != kShimMagic) return std::nullopt;
    const std::uint16_t length = r.u16();
    if (r.u8() != kTypeTableSync) return std::nullopt;
    if (r.u8() != kShimVersionV4) return std::nullopt;
    if (length < kTableSyncHeaderSize) return std::nullopt;
    if (data.size() < length) return std::nullopt;
    TableSync sync;
    sync.epoch = r.u64();
    const std::uint16_t rule_count = r.u16();
    r.u16();  // reserved
    sync.rules.reserve(rule_count);
    for (std::uint16_t i = 0; i < rule_count; ++i) {
      // Never read past the declared frame length, even if the buffer
      // has trailing bytes: a rule's fixed part and its annotation must
      // both fit inside `length`.
      if (r.offset() + kTableRuleFixedSize > length) return std::nullopt;
      TableRule rule;
      rule.vlan_first = r.u16();
      rule.vlan_last = r.u16();
      rule.dst_prefix = util::Ipv4Addr(r.u32());
      rule.prefix_len = r.u8();
      rule.proto = r.u8();
      const std::uint8_t opcode = r.u8();
      r.u8();  // pad
      rule.priority = r.u16();
      rule.port_first = r.u16();
      rule.port_last = r.u16();
      const std::uint16_t annotation_len = r.u16();
      rule.target.addr = util::Ipv4Addr(r.u32());
      rule.target.port = r.u16();
      r.u16();  // pad2
      rule.limit_bytes_per_sec = r.u64();
      rule.policy_name = r.str(kPolicyNameSize);
      if (auto nul = rule.policy_name.find('\0'); nul != std::string::npos)
        rule.policy_name.resize(nul);
      if (rule.prefix_len > 32) return std::nullopt;
      if (rule.proto > TableRule::kProtoUdp) return std::nullopt;
      if (opcode < static_cast<std::uint8_t>(TableAction::kForward) ||
          opcode > static_cast<std::uint8_t>(TableAction::kFallback))
        return std::nullopt;
      rule.action = static_cast<TableAction>(opcode);
      if (rule.vlan_first > rule.vlan_last) return std::nullopt;
      if (rule.port_first > rule.port_last) return std::nullopt;
      if (r.offset() + annotation_len > length) return std::nullopt;
      rule.annotation = r.str(annotation_len);
      sync.rules.push_back(std::move(rule));
    }
    // The declared length must be exactly the bytes the rules consumed —
    // trailing slack inside the frame means a malformed (or truncated-
    // then-padded) table, not a shorter one.
    if (r.offset() != length) return std::nullopt;
    return sync;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

}  // namespace gq::shim

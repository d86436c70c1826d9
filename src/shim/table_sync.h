// Shim wire v4: the table-sync message. The containment server compiles
// its INI policy class hierarchy into a flat match-action table (one
// TableRule per compiled match arm) and pushes the whole table to each
// gateway router in a single epoch-stamped datagram whenever the policy
// configuration changes. The router then resolves first-contact verdicts
// locally — longest-prefix match on the destination address, port-range
// match, protocol match — with zero containment-server round trips;
// only rules compiled to kFallback (REWRITE policies, trigger-coupled
// VLAN ranges, stateful or otherwise non-compilable policies) still take
// the per-flow shim path.
//
// Table-sync frames reuse the shim preamble (magic, length, type,
// version) but carry their own type (kTypeTableSync) and version
// (kShimVersionV4), and travel as standalone UDP datagrams to the
// gateway's management address on kTableSyncPort — never inside a flow's
// byte stream — so the v3 stream parsers in shim.cc are untouched.
//
// Layout (all integers network order):
//   preamble     8  magic u32, length u16, type u8 (=3), version u8 (=4)
//   epoch        8  containment-server policy epoch
//   rule_count   2
//   reserved     2
//   rules        rule_count × (68 fixed bytes + annotation)
//
// Per-rule fixed part (68 bytes), followed by `annotation_len` bytes:
//   vlan_first u16, vlan_last u16      inmate-VLAN range the rule covers
//   dst_prefix u32, prefix_len u8     dst-address LPM key (len 0 = any)
//   proto u8                           0 = any, 1 = TCP, 2 = UDP
//   action u8, pad u8                  TableAction opcode
//   priority u16                       policy-binding index (first match
//                                      across bindings wins; within one
//                                      binding longer prefixes and
//                                      narrower port ranges win)
//   port_first u16, port_last u16     dst-port range (0..65535 = any)
//   annotation_len u16
//   target_addr u32, target_port u16  REDIRECT/REFLECT target
//   pad2 u16
//   limit u64                          LIMIT byte rate
//   policy_name char[32]              NUL-padded, like the response shim
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "shim/shim.h"
#include "util/addr.h"

namespace gq::shim {

/// UDP port on the gateway's management address that receives table-sync
/// pushes from the containment server (CS listens on 6666, the farm
/// controller on 7777; the table plane gets its own well-known port).
inline constexpr std::uint16_t kTableSyncPort = 6676;

/// Table-sync header: preamble (8) + epoch (8) + rule_count/reserved (4).
inline constexpr std::size_t kTableSyncHeaderSize = 20;
/// Fixed (pre-annotation) size of one encoded TableRule.
inline constexpr std::size_t kTableRuleFixedSize = 68;

/// Match-action opcodes. The first five mirror the gateway-enforceable
/// verdict opcodes; kFallback is table-plane only and means "take the
/// shim path" — it exists so a policy can pin *specific* match arms
/// (e.g. port 25 with its side-effecting sink hint) to the containment
/// server while the rest of its traffic is resolved in-gateway.
enum class TableAction : std::uint8_t {
  kForward = 1,
  kDrop = 2,
  kLimit = 3,
  kRedirect = 4,
  kReflect = 5,
  kFallback = 6,
};

const char* table_action_name(TableAction action);

/// One compiled match-action rule.
struct TableRule {
  // --- match key --------------------------------------------------------
  std::uint16_t vlan_first = 0;
  std::uint16_t vlan_last = 0xFFFF;
  /// Destination-address prefix; prefix_len 0 matches any address.
  util::Ipv4Addr dst_prefix;
  std::uint8_t prefix_len = 0;
  /// 0 = any protocol, 1 = TCP, 2 = UDP.
  std::uint8_t proto = 0;
  /// Destination-port range, inclusive; [0, 65535] matches any port.
  std::uint16_t port_first = 0;
  std::uint16_t port_last = 0xFFFF;
  /// Policy-binding index: rules from earlier bindings always win, so
  /// the table preserves the containment server's first-match-across-
  /// bindings precedence exactly.
  std::uint16_t priority = 0;

  // --- action -----------------------------------------------------------
  TableAction action = TableAction::kFallback;
  /// REDIRECT/REFLECT destination.
  util::Endpoint target;
  /// LIMIT byte rate.
  std::uint64_t limit_bytes_per_sec = 0;
  /// Policy name + annotation, byte-identical to what the containment
  /// server's decide() would put in the response shim for this arm (the
  /// differential harness asserts this).
  std::string policy_name;
  std::string annotation;

  /// TCP convenience constants for `proto`.
  static constexpr std::uint8_t kProtoAny = 0;
  static constexpr std::uint8_t kProtoTcp = 1;
  static constexpr std::uint8_t kProtoUdp = 2;

  /// Does this rule cover (vlan, proto, dst)? `proto` uses the kProto*
  /// encoding above.
  [[nodiscard]] bool matches(std::uint16_t vlan, std::uint8_t flow_proto,
                             const util::Endpoint& dst) const;
};

/// The response shim the containment server would have sent for a flow
/// `orig` -> `orig_dst` matching `rule`: FORWARD/DROP/LIMIT keep
/// resp = orig_dst, REDIRECT/REFLECT take rule.target, and a LIMIT rate
/// of 0 leaves limit_bytes_per_sec unset (the gateway's default rate).
/// kFallback is not a verdict: nullopt, the flow takes the shim path.
/// policy_epoch is left for the caller to stamp.
std::optional<ResponseShim> table_rule_verdict(const TableRule& rule,
                                               util::Endpoint orig,
                                               util::Endpoint orig_dst);

/// One full compiled table, pushed atomically. A sync always carries the
/// complete table for its epoch — there are no incremental updates, so a
/// lost datagram costs only shim-path fallbacks until the next push.
struct TableSync {
  std::uint64_t epoch = 0;
  std::vector<TableRule> rules;

  /// Encode as one v4 frame. Throws std::length_error if the table does
  /// not fit the u16 length field (~900 annotation-free rules; real
  /// compiled tables are tens of rules).
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Parse a complete table-sync frame from the start of `data`.
  /// Hardened against hostile input: every length, range, and opcode is
  /// validated, and the frame must be internally consistent (consumed
  /// bytes == declared length). Returns nullopt on any violation —
  /// reject or parse, never crash or over-read.
  static std::optional<TableSync> parse(std::span<const std::uint8_t> data);
};

}  // namespace gq::shim

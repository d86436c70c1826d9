// The GQ shimming protocol (paper §6.2, Figure 4). To couple the
// gateway's packet router to the containment server, every redirected
// flow starts with a 24-byte containment *request* shim injected by the
// gateway (into the TCP sequence space, or padded onto the first UDP
// datagram) carrying the flow's original four-tuple, the inmate's VLAN
// ID, and a nonce port on which the gateway will accept a subsequent
// outbound connection from the containment server (used by REWRITE
// proxies). The containment server answers with a *response* shim
// carrying the resulting four-tuple (the possibly rewritten
// destination), the verdict opcode, a 32-byte policy name tag, a typed
// verdict-parameter block (e.g. the LIMIT byte rate), and an optional
// textual annotation. The gateway strips the response shim from the
// stream before relaying bytes to the inmate.
//
// The response extends the paper's >= 56-byte layout with an explicit
// 12-byte parameter block (flags + rate), so verdict parameters are
// typed fields and the annotation is purely descriptive, and with a
// 16-byte cache block: a cache-scope selector, a TTL, and the
// containment server's policy epoch, letting the gateway cache resolved
// verdicts and admit repeat flows without a shim round trip (the
// kParamCacheable flag in the parameter block gates whether the verdict
// may be cached at all). This is wire version 3, the only stream-shim
// version: a request or response carrying any other version byte is
// malformed.
//
// Wire version 4 adds a third message type alongside request/response:
// the *table-sync* frame (kTypeTableSync, see shim/table_sync.h) by
// which the containment server pushes its compiled match-action policy
// table to each gateway router. Table-sync frames travel on their own
// UDP port, never inside a flow's byte stream, so the stream parsers
// here remain untouched — `read_preamble` accepts only version 3, and
// v4 frames are decoded solely by the table-sync codec.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/addr.h"

namespace gq::shim {

/// Containment verdicts (Figure 2). Endpoint-control verdicts are
/// enforced by the gateway alone once connectivity is established;
/// REWRITE keeps the containment server in-path as a transparent proxy.
enum class Verdict : std::uint32_t {
  kForward = 1,
  kLimit = 2,
  kDrop = 3,
  kRedirect = 4,
  kReflect = 5,
  kRewrite = 6,
};

const char* verdict_name(Verdict v);

/// Magic number opening every shim message ("GQSH").
inline constexpr std::uint32_t kShimMagic = 0x47515348;
/// Stream-shim wire version: the only one encoders emit and parsers
/// accept.
inline constexpr std::uint8_t kShimVersion = 3;
/// Table-sync wire version (table-sync frames only; stream shims stay v3).
inline constexpr std::uint8_t kShimVersionV4 = 4;
inline constexpr std::uint8_t kTypeRequest = 1;
inline constexpr std::uint8_t kTypeResponse = 2;
/// Compiled policy-table push (v4, UDP datagram; see shim/table_sync.h).
inline constexpr std::uint8_t kTypeTableSync = 3;
inline constexpr std::size_t kRequestShimSize = 24;
/// Response layout: preamble (8) + four-tuple (12) + verdict (4) +
/// policy name (32) + parameter block (12) + cache block (16: scope u8,
/// reserved u8+u16, ttl_ms u32, policy epoch u64) = 84, then the
/// annotation. This is the floor any well-formed response must clear.
inline constexpr std::size_t kResponseShimMinSize = 84;
inline constexpr std::size_t kPolicyNameSize = 32;
/// Parameter-block flag bits.
inline constexpr std::uint32_t kParamHasLimitRate = 0x1;
/// The verdict may be cached by the gateway. REWRITE verdicts
/// must never carry this flag: the containment server stays in-path.
inline constexpr std::uint32_t kParamCacheable = 0x2;

/// How widely a cached verdict applies (v3 cache block). Chosen by the
/// policy: exact repeat flows only, every flow to the same destination
/// endpoint, or every flow to the same destination port (scan-class
/// policies where the verdict depends on nothing but the service).
enum class CacheScope : std::uint8_t {
  kExactFlow = 0,    ///< Full four-tuple must match.
  kDstEndpoint = 1,  ///< (dst addr, dst port, proto) must match.
  kDstPort = 2,      ///< (dst port, proto) must match.
};

const char* cache_scope_name(CacheScope scope);

/// Where a flow's containment verdict came from, in descending order of
/// cost: a full shim round trip to the containment server, the gateway's
/// verdict cache, or the compiled in-gateway policy table. Threaded
/// through flow events, trace annotations, and the reporter so every
/// listing names its datapath.
enum class VerdictSource : std::uint8_t {
  kShim = 0,    ///< Containment-server shim round trip.
  kCached = 1,  ///< Gateway verdict cache (repeat flow).
  kTable = 2,   ///< Compiled policy table (first-contact local verdict).
};

const char* verdict_source_name(VerdictSource source);
/// Inverse of verdict_source_name; nullopt for any other token.
std::optional<VerdictSource> verdict_source_from_name(std::string_view name);

/// Containment request shim: gateway -> containment server.
struct RequestShim {
  util::Endpoint orig;   ///< Flow originator (inmate side, internal addr).
  util::Endpoint resp;   ///< Intended responder (the flow's true target).
  std::uint16_t vlan = 0;       ///< Inmate's VLAN ID.
  std::uint16_t nonce_port = 0; ///< Gateway port for a proxy's outbound leg.

  /// Exactly kRequestShimSize bytes.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Parse from the start of `data`; nullopt if not a valid request shim.
  static std::optional<RequestShim> parse(
      std::span<const std::uint8_t> data);
};

/// Containment response shim: containment server -> gateway.
struct ResponseShim {
  util::Endpoint orig;  ///< Resulting originator endpoint.
  util::Endpoint resp;  ///< Resulting responder endpoint (redirect target).
  Verdict verdict = Verdict::kDrop;
  std::string policy_name;  ///< Truncated/padded to 32 bytes on the wire.
  /// Typed verdict parameter: target byte rate for LIMIT verdicts.
  /// Serialized in the explicit parameter block, never in the annotation.
  std::optional<std::int64_t> limit_bytes_per_sec;
  std::string annotation;   ///< Purely descriptive context.

  // --- Cache block -----------------------------------------------------
  /// The gateway may cache this verdict (kParamCacheable). Never set on
  /// REWRITE verdicts.
  bool cacheable = false;
  CacheScope cache_scope = CacheScope::kExactFlow;
  /// Cache entry lifetime; 0 lets the gateway pick its configured default.
  std::uint32_t cache_ttl_ms = 0;
  /// The containment server's policy epoch at decision time. Carried on
  /// every response (cacheable or not) so the gateway can invalidate
  /// stale cache generations lazily.
  std::uint64_t policy_epoch = 0;

  /// kResponseShimMinSize + annotation bytes.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Parse from the start of `data`. Returns nullopt if `data` does not
  /// begin with a complete response shim; `consumed` (when non-null)
  /// receives the shim's total wire length on success.
  static std::optional<ResponseShim> parse(std::span<const std::uint8_t> data,
                                           std::size_t* consumed = nullptr);
};

/// Peek at a buffer: is a complete shim message of the given type
/// available at the front, and if so how long is it? Used by the gateway
/// when scanning the containment server's stream for the response shim.
std::optional<std::size_t> complete_shim_length(
    std::span<const std::uint8_t> data, std::uint8_t expected_type);

}  // namespace gq::shim

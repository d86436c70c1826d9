#include "shim/shim.h"

#include "util/bytes.h"

namespace gq::shim {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kForward: return "FORWARD";
    case Verdict::kLimit: return "LIMIT";
    case Verdict::kDrop: return "DROP";
    case Verdict::kRedirect: return "REDIRECT";
    case Verdict::kReflect: return "REFLECT";
    case Verdict::kRewrite: return "REWRITE";
  }
  return "?";
}

const char* cache_scope_name(CacheScope scope) {
  switch (scope) {
    case CacheScope::kExactFlow: return "exact";
    case CacheScope::kDstEndpoint: return "dst-endpoint";
    case CacheScope::kDstPort: return "dst-port";
  }
  return "?";
}

const char* verdict_source_name(VerdictSource source) {
  switch (source) {
    case VerdictSource::kShim: return "shim";
    case VerdictSource::kCached: return "cached";
    case VerdictSource::kTable: return "table";
  }
  return "?";
}

std::optional<VerdictSource> verdict_source_from_name(std::string_view name) {
  for (const auto source :
       {VerdictSource::kShim, VerdictSource::kCached, VerdictSource::kTable}) {
    if (name == verdict_source_name(source)) return source;
  }
  return std::nullopt;
}

namespace {

void write_preamble(util::ByteWriter& w, std::uint16_t length,
                    std::uint8_t type) {
  w.u32(kShimMagic);
  w.u16(length);
  w.u8(type);
  w.u8(kShimVersion);
}

struct Preamble {
  std::uint16_t length;
  std::uint8_t type;
  std::uint8_t version;
};

std::optional<Preamble> read_preamble(util::ByteReader& r) {
  if (r.remaining() < 8) return std::nullopt;
  if (r.u32() != kShimMagic) return std::nullopt;
  Preamble p;
  p.length = r.u16();
  p.type = r.u8();
  p.version = r.u8();
  if (p.version != kShimVersion) return std::nullopt;
  return p;
}

}  // namespace

std::vector<std::uint8_t> RequestShim::encode() const {
  util::ByteWriter w(kRequestShimSize);
  write_preamble(w, kRequestShimSize, kTypeRequest);
  w.u32(orig.addr.value());
  w.u32(resp.addr.value());
  w.u16(orig.port);
  w.u16(resp.port);
  w.u16(vlan);
  w.u16(nonce_port);
  return w.take();
}

std::optional<RequestShim> RequestShim::parse(
    std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    auto preamble = read_preamble(r);
    if (!preamble || preamble->type != kTypeRequest ||
        preamble->length != kRequestShimSize)
      return std::nullopt;
    if (data.size() < kRequestShimSize) return std::nullopt;
    RequestShim shim;
    shim.orig.addr = util::Ipv4Addr(r.u32());
    shim.resp.addr = util::Ipv4Addr(r.u32());
    shim.orig.port = r.u16();
    shim.resp.port = r.u16();
    shim.vlan = r.u16();
    shim.nonce_port = r.u16();
    return shim;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> ResponseShim::encode() const {
  const std::size_t total = kResponseShimMinSize + annotation.size();
  util::ByteWriter w(total);
  write_preamble(w, static_cast<std::uint16_t>(total), kTypeResponse);
  w.u32(orig.addr.value());
  w.u32(resp.addr.value());
  w.u16(orig.port);
  w.u16(resp.port);
  w.u32(static_cast<std::uint32_t>(verdict));
  std::string name = policy_name;
  name.resize(kPolicyNameSize, '\0');
  w.str(name);
  // Typed verdict-parameter block: flags word, then the LIMIT rate
  // (zero-filled when absent so the block stays fixed-size).
  std::uint32_t flags = limit_bytes_per_sec ? kParamHasLimitRate : 0;
  if (cacheable) flags |= kParamCacheable;
  w.u32(flags);
  w.u64(static_cast<std::uint64_t>(limit_bytes_per_sec.value_or(0)));
  // Cache block: scope, pad to a u32 boundary, TTL, policy epoch.
  w.u8(static_cast<std::uint8_t>(cache_scope));
  w.u8(0);
  w.u16(0);
  w.u32(cache_ttl_ms);
  w.u64(policy_epoch);
  w.str(annotation);
  return w.take();
}

std::optional<ResponseShim> ResponseShim::parse(
    std::span<const std::uint8_t> data, std::size_t* consumed) {
  try {
    util::ByteReader r(data);
    auto preamble = read_preamble(r);
    if (!preamble || preamble->type != kTypeResponse) return std::nullopt;
    if (preamble->length < kResponseShimMinSize) return std::nullopt;
    if (data.size() < preamble->length) return std::nullopt;
    ResponseShim shim;
    shim.orig.addr = util::Ipv4Addr(r.u32());
    shim.resp.addr = util::Ipv4Addr(r.u32());
    shim.orig.port = r.u16();
    shim.resp.port = r.u16();
    const std::uint32_t opcode = r.u32();
    if (opcode < 1 || opcode > 6) return std::nullopt;
    shim.verdict = static_cast<Verdict>(opcode);
    shim.policy_name = r.str(kPolicyNameSize);
    // Strip NUL padding.
    if (auto nul = shim.policy_name.find('\0'); nul != std::string::npos)
      shim.policy_name.resize(nul);
    const std::uint32_t param_flags = r.u32();
    const auto limit = static_cast<std::int64_t>(r.u64());
    if ((param_flags & kParamHasLimitRate) != 0)
      shim.limit_bytes_per_sec = limit;
    const std::uint8_t scope = r.u8();
    if (scope > static_cast<std::uint8_t>(CacheScope::kDstPort))
      return std::nullopt;
    shim.cache_scope = static_cast<CacheScope>(scope);
    r.u8();
    r.u16();
    shim.cache_ttl_ms = r.u32();
    shim.policy_epoch = r.u64();
    shim.cacheable = (param_flags & kParamCacheable) != 0;
    shim.annotation = r.str(preamble->length - kResponseShimMinSize);
    if (consumed) *consumed = preamble->length;
    return shim;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

std::optional<std::size_t> complete_shim_length(
    std::span<const std::uint8_t> data, std::uint8_t expected_type) {
  try {
    util::ByteReader r(data);
    auto preamble = read_preamble(r);
    if (!preamble || preamble->type != expected_type) return std::nullopt;
    // The length field is attacker-influenced stream data: never report a
    // "complete" shim shorter than the type's wire minimum, or a caller
    // consuming that many bytes would desynchronize on the stream.
    const std::size_t min_length = expected_type == kTypeRequest
                                       ? kRequestShimSize
                                       : kResponseShimMinSize;
    if (preamble->length < min_length) return std::nullopt;
    if (data.size() < preamble->length) return std::nullopt;
    return preamble->length;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

}  // namespace gq::shim

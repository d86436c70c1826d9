// Gateway-side flow-verdict cache, motivated by paper §6.2: every new
// flow stalls on a shim round trip to the containment server, so
// flow-*setup* rate is CS-bound. Policies opt individual decisions in
// via the shim v3 cache block; the router then answers repeat flows
// matching a cached verdict locally — no redirect, no shim, no CS
// occupancy — while REWRITE always bypasses the cache (the CS must stay
// in-path as the content-control proxy).
//
// Keys always include the inmate's VLAN (per-VLAN policy bindings,
// per-VLAN flush on revert/terminate triggers) and the flow protocol.
// Three scopes, probed narrowest-first:
//   exact         full four-tuple — repeat identical flows only
//   dst-endpoint  (dst addr, dst port) — any inmate port to one service
//   dst-port      dst port only — scan-class policies
//
// The cache is LRU-bounded and entries expire on the event-loop clock
// (lazily, at lookup). Invalidation beyond TTL is the router's job:
// whole-cache flush on a policy-epoch bump, per-VLAN flush on inmate
// revert/terminate.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "packet/frame.h"
#include "shim/shim.h"
#include "util/addr.h"
#include "util/time.h"

namespace gq::gw {

/// One cached containment decision — everything needed to synthesize
/// the response shim the containment server would have sent.
struct CachedVerdict {
  shim::Verdict verdict = shim::Verdict::kDrop;
  /// Resulting responder endpoint for kRedirect/kReflect (the sink or
  /// redirect target the original response shim carried).
  util::Endpoint resp;
  std::string policy_name;
  std::string annotation;
  std::optional<std::int64_t> limit_bytes_per_sec;
  util::TimePoint expires;
};

class VerdictCache {
 public:
  explicit VerdictCache(std::size_t capacity) : capacity_(capacity) {}

  /// Probe exact -> dst-endpoint -> dst-port for a live entry. Expired
  /// entries encountered along the way are erased and counted in
  /// `expired` (when non-null). Hits are LRU-refreshed. The returned
  /// pointer is valid until the next mutating call.
  const CachedVerdict* lookup(pkt::FlowProto proto, std::uint16_t vlan,
                              util::Endpoint src, util::Endpoint dst,
                              util::TimePoint now,
                              std::uint64_t* expired = nullptr);

  /// Insert (or refresh) the entry for the given flow at the scope the
  /// policy chose. Returns the number of LRU evictions this caused
  /// (0 or 1).
  std::size_t insert(pkt::FlowProto proto, std::uint16_t vlan,
                     util::Endpoint src, util::Endpoint dst,
                     shim::CacheScope scope, CachedVerdict entry);

  /// Drop everything (policy-epoch bump). Returns entries dropped.
  std::size_t flush();

  /// Drop every entry of one VLAN (inmate revert/terminate trigger).
  /// Returns entries dropped.
  std::size_t flush_vlan(std::uint16_t vlan);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// Scope is part of the key: the source endpoint is zeroed for the
  /// two widened scopes and the destination address for dst-port, so
  /// one map serves all three probe shapes.
  struct Key {
    pkt::FlowProto proto = pkt::FlowProto::kTcp;
    std::uint16_t vlan = 0;
    shim::CacheScope scope = shim::CacheScope::kExactFlow;
    util::Endpoint src;
    util::Endpoint dst;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      const std::uint64_t addrs =
          (std::uint64_t{k.src.addr.value()} << 32) | k.dst.addr.value();
      const std::uint64_t rest =
          (std::uint64_t{k.src.port} << 48) | (std::uint64_t{k.dst.port} << 32) |
          (std::uint64_t{k.vlan} << 16) |
          (std::uint64_t{static_cast<std::uint8_t>(k.scope)} << 8) |
          static_cast<std::uint64_t>(k.proto);
      return static_cast<std::size_t>(
          pkt::FlowKeyHash::mix(addrs ^ pkt::FlowKeyHash::mix(rest)));
    }
  };

  static Key make_key(pkt::FlowProto proto, std::uint16_t vlan,
                      util::Endpoint src, util::Endpoint dst,
                      shim::CacheScope scope);

  using Lru = std::list<std::pair<Key, CachedVerdict>>;

  /// Find the live entry for one fully-formed key; erases it when
  /// expired (counting into `expired`).
  const CachedVerdict* probe(const Key& key, util::TimePoint now,
                             std::uint64_t* expired);

  std::size_t capacity_;
  Lru lru_;  ///< Front = most recently used.
  std::unordered_map<Key, Lru::iterator, KeyHash> map_;
};

}  // namespace gq::gw

// Gateway-side verdict cache: unit tests of the LRU/TTL
// container and full-farm integration tests of the hot path it removes —
// repeat flows matching a cacheable decision are resolved by the router
// without a containment-server shim round trip, REWRITE always takes the
// round trip, the safety filter still applies to cached verdicts, and
// the cache is invalidated on policy-epoch bumps and inmate
// revert/terminate triggers (the latter proven by an explicit
// escape-attempt case).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "containment/policy.h"
#include "core/farm.h"
#include "gateway/verdict_cache.h"
#include "util/bytes.h"

namespace gq {
namespace {

using util::Endpoint;
using util::Ipv4Addr;

// --- VerdictCache unit tests ----------------------------------------------

const Endpoint kSrc{Ipv4Addr(10, 0, 0, 23), 1234};
const Endpoint kDst{Ipv4Addr(93, 184, 216, 34), 80};

gw::CachedVerdict entry_expiring(util::TimePoint at,
                                 shim::Verdict v = shim::Verdict::kForward) {
  gw::CachedVerdict entry;
  entry.verdict = v;
  entry.policy_name = "Unit";
  entry.expires = at;
  return entry;
}

TEST(VerdictCache, ExactScopeMatchesFullTupleOnly) {
  gw::VerdictCache cache(16);
  const auto horizon = util::TimePoint{} + util::minutes(1);
  cache.insert(pkt::FlowProto::kTcp, 16, kSrc, kDst,
               shim::CacheScope::kExactFlow, entry_expiring(horizon));
  const auto now = util::TimePoint{};
  EXPECT_NE(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc, kDst, now), nullptr);
  // Any deviation in the tuple, VLAN, or protocol misses.
  EXPECT_EQ(cache.lookup(pkt::FlowProto::kTcp, 16,
                         Endpoint{kSrc.addr, 1235}, kDst, now),
            nullptr);
  EXPECT_EQ(cache.lookup(pkt::FlowProto::kTcp, 17, kSrc, kDst, now), nullptr);
  EXPECT_EQ(cache.lookup(pkt::FlowProto::kUdp, 16, kSrc, kDst, now), nullptr);
}

TEST(VerdictCache, DstEndpointScopeIgnoresSource) {
  gw::VerdictCache cache(16);
  const auto horizon = util::TimePoint{} + util::minutes(1);
  cache.insert(pkt::FlowProto::kTcp, 16, kSrc, kDst,
               shim::CacheScope::kDstEndpoint, entry_expiring(horizon));
  const auto now = util::TimePoint{};
  // Different inmate source port, same destination endpoint: hit.
  EXPECT_NE(cache.lookup(pkt::FlowProto::kTcp, 16,
                         Endpoint{kSrc.addr, 9999}, kDst, now),
            nullptr);
  // Different destination port: miss.
  EXPECT_EQ(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc,
                         Endpoint{kDst.addr, 443}, now),
            nullptr);
}

TEST(VerdictCache, DstPortScopeIgnoresAddresses) {
  gw::VerdictCache cache(16);
  const auto horizon = util::TimePoint{} + util::minutes(1);
  cache.insert(pkt::FlowProto::kTcp, 16, kSrc, kDst,
               shim::CacheScope::kDstPort, entry_expiring(horizon));
  const auto now = util::TimePoint{};
  // Entirely different destination host, same port: hit (scan-class).
  EXPECT_NE(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc,
                         Endpoint{Ipv4Addr(1, 2, 3, 4), 80}, now),
            nullptr);
  EXPECT_EQ(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc,
                         Endpoint{Ipv4Addr(1, 2, 3, 4), 81}, now),
            nullptr);
  // The VLAN still partitions even the widest scope.
  EXPECT_EQ(cache.lookup(pkt::FlowProto::kTcp, 17, kSrc, kDst, now), nullptr);
}

TEST(VerdictCache, NarrowerScopeWinsWhenBothMatch) {
  gw::VerdictCache cache(16);
  const auto horizon = util::TimePoint{} + util::minutes(1);
  cache.insert(pkt::FlowProto::kTcp, 16, kSrc, kDst,
               shim::CacheScope::kDstPort,
               entry_expiring(horizon, shim::Verdict::kDrop));
  cache.insert(pkt::FlowProto::kTcp, 16, kSrc, kDst,
               shim::CacheScope::kExactFlow,
               entry_expiring(horizon, shim::Verdict::kForward));
  const auto* hit =
      cache.lookup(pkt::FlowProto::kTcp, 16, kSrc, kDst, util::TimePoint{});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->verdict, shim::Verdict::kForward);
}

TEST(VerdictCache, ExpiredEntriesAreErasedLazilyAndCounted) {
  gw::VerdictCache cache(16);
  cache.insert(pkt::FlowProto::kTcp, 16, kSrc, kDst,
               shim::CacheScope::kExactFlow,
               entry_expiring(util::TimePoint{} + util::seconds(10)));
  EXPECT_EQ(cache.size(), 1u);
  std::uint64_t expired = 0;
  // At exactly the expiry instant the entry is dead (expires is an
  // exclusive bound).
  EXPECT_EQ(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc, kDst,
                         util::TimePoint{} + util::seconds(10), &expired),
            nullptr);
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(VerdictCache, LruBoundedEviction) {
  gw::VerdictCache cache(2);
  const auto horizon = util::TimePoint{} + util::minutes(1);
  const auto now = util::TimePoint{};
  auto dst = [](std::uint8_t i) {
    return Endpoint{Ipv4Addr(93, 184, 216, i), 80};
  };
  EXPECT_EQ(cache.insert(pkt::FlowProto::kTcp, 16, kSrc, dst(1),
                         shim::CacheScope::kExactFlow,
                         entry_expiring(horizon)),
            0u);
  EXPECT_EQ(cache.insert(pkt::FlowProto::kTcp, 16, kSrc, dst(2),
                         shim::CacheScope::kExactFlow,
                         entry_expiring(horizon)),
            0u);
  // Touch dst(1) so dst(2) is the LRU victim.
  EXPECT_NE(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc, dst(1), now),
            nullptr);
  EXPECT_EQ(cache.insert(pkt::FlowProto::kTcp, 16, kSrc, dst(3),
                         shim::CacheScope::kExactFlow,
                         entry_expiring(horizon)),
            1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc, dst(1), now),
            nullptr);
  EXPECT_EQ(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc, dst(2), now),
            nullptr);
  EXPECT_NE(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc, dst(3), now),
            nullptr);
}

TEST(VerdictCache, FlushAndFlushVlan) {
  gw::VerdictCache cache(16);
  const auto horizon = util::TimePoint{} + util::minutes(1);
  cache.insert(pkt::FlowProto::kTcp, 16, kSrc, kDst,
               shim::CacheScope::kExactFlow, entry_expiring(horizon));
  cache.insert(pkt::FlowProto::kTcp, 17, kSrc, kDst,
               shim::CacheScope::kDstPort, entry_expiring(horizon));
  cache.insert(pkt::FlowProto::kUdp, 17, kSrc, kDst,
               shim::CacheScope::kDstEndpoint, entry_expiring(horizon));
  EXPECT_EQ(cache.flush_vlan(17), 2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.lookup(pkt::FlowProto::kTcp, 16, kSrc, kDst,
                         util::TimePoint{}),
            nullptr);
  EXPECT_EQ(cache.flush(), 1u);
  EXPECT_EQ(cache.size(), 0u);
}

// --- Full-farm integration -------------------------------------------------

// A policy whose decisions opt into caching (never on REWRITE — the
// containment server refuses that combination anyway).
class CacheablePolicy : public cs::Policy {
 public:
  CacheablePolicy(shim::Verdict verdict, shim::CacheScope scope,
                  std::uint32_t ttl_ms = 0)
      : cs::Policy("Cacheable"), verdict_(verdict), scope_(scope),
        ttl_ms_(ttl_ms) {}

  cs::Decision decide(const cs::FlowInfo&) override {
    if (deny_all_) return cs::Decision::drop("post-revert deny");
    switch (verdict_) {
      case shim::Verdict::kForward:
        return cs::Decision::forward().cached(scope_, ttl_ms_);
      case shim::Verdict::kDrop:
        return cs::Decision::drop("denied").cached(scope_, ttl_ms_);
      default:
        return cs::Decision::drop("unexpected");
    }
  }

  // Flip to deny-everything (uncached): models the operator tightening
  // policy after an inmate lifecycle action.
  void deny_all() { deny_all_ = true; }

 private:
  shim::Verdict verdict_;
  bool deny_all_ = false;
  shim::CacheScope scope_;
  std::uint32_t ttl_ms_;
};

struct CacheFarm {
  core::Farm farm;
  core::Subfarm* sub = nullptr;
  net::HostStack* web = nullptr;
  inm::Inmate* inmate = nullptr;
  int web_accepts = 0;

  explicit CacheFarm(int inmates = 1, core::FarmOptions options = {})
      : farm(options) {
    web = &farm.add_external_host("web", Ipv4Addr(93, 184, 216, 34));
    web->listen(80, [this](std::shared_ptr<net::TcpConnection> conn) {
      ++web_accepts;
      std::weak_ptr<net::TcpConnection> weak = conn;
      conn->on_data = [weak](std::span<const std::uint8_t> d) {
        if (auto c = weak.lock()) c->send(d);
      };
    });
    sub = &farm.add_subfarm("Cache");
    for (int i = 0; i < inmates; ++i) {
      auto& created = sub->create_inmate(inm::HostingKind::kVm);
      if (!inmate) inmate = &created;
    }
    farm.run_for(util::minutes(2));  // Boot + DHCP.
  }

  void bind(std::shared_ptr<cs::Policy> policy) {
    sub->bind_policy(sub->router().config().vlan_first,
                     sub->router().config().vlan_last, std::move(policy));
  }

  // One echo exchange against web:80; returns the bytes echoed back.
  std::string exchange(const std::string& payload) {
    std::string answer;
    auto conn = inmate->host().connect({Ipv4Addr(93, 184, 216, 34), 80});
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak, payload] {
      if (auto c = weak.lock()) c->send(payload);
    };
    conn->on_data = [weak, &answer](std::span<const std::uint8_t> d) {
      answer.append(reinterpret_cast<const char*>(d.data()), d.size());
      if (auto c = weak.lock()) c->close();
    };
    farm.run_for(util::seconds(30));
    return answer;
  }

  std::uint64_t counter(const std::string& name) {
    const auto* c = farm.metrics().find_counter("gw.Cache." + name);
    return c ? c->value() : 0;
  }
};

TEST(VerdictCacheFarm, RepeatFlowsSkipTheShimRoundTrip) {
  CacheFarm f;
  f.bind(std::make_shared<CacheablePolicy>(shim::Verdict::kForward,
                                           shim::CacheScope::kDstEndpoint));
  std::vector<bool> cached_flags;
  f.farm.telemetry().bus().subscribe([&](const obs::FarmEvent& e) {
    if (e.kind == obs::FarmEvent::Kind::kFlowVerdict)
      cached_flags.push_back(e.verdict_source ==
                             shim::VerdictSource::kCached);
  });

  EXPECT_EQ(f.exchange("first"), "first");
  const auto decided_after_first = f.sub->containment().flows_decided();
  EXPECT_EQ(decided_after_first, 1u);
  EXPECT_EQ(f.counter("cache_miss"), 1u);
  EXPECT_EQ(f.counter("cache_insert"), 1u);

  // Second and third flows to the same destination endpoint: answered
  // from the cache — the containment server never sees them, yet the
  // data path works end-to-end.
  EXPECT_EQ(f.exchange("second"), "second");
  EXPECT_EQ(f.exchange("third"), "third");
  EXPECT_EQ(f.sub->containment().flows_decided(), decided_after_first);
  EXPECT_EQ(f.sub->router().cache_hits(), 2u);
  EXPECT_EQ(f.web_accepts, 3);

  // The event stream labels each verdict with its source.
  ASSERT_EQ(cached_flags.size(), 3u);
  EXPECT_FALSE(cached_flags[0]);
  EXPECT_TRUE(cached_flags[1]);
  EXPECT_TRUE(cached_flags[2]);

  // And the per-flow trace index carries the same annotation.
  std::size_t cached_in_trace = 0;
  for (const auto& flow : f.sub->router().trace().index().flows())
    if (flow.has_verdict &&
        flow.verdict_source == shim::VerdictSource::kCached)
      ++cached_in_trace;
  EXPECT_EQ(cached_in_trace, 2u);
}

TEST(VerdictCacheFarm, NegativeDropEntriesAreServedFromCache) {
  CacheFarm f;
  f.bind(std::make_shared<CacheablePolicy>(shim::Verdict::kDrop,
                                           shim::CacheScope::kDstEndpoint));
  int resets = 0;
  for (int i = 0; i < 3; ++i) {
    auto conn = f.inmate->host().connect({Ipv4Addr(93, 184, 216, 34), 80});
    conn->on_reset = [&] { ++resets; };
    f.farm.run_for(util::seconds(15));
  }
  EXPECT_EQ(resets, 3);
  EXPECT_EQ(f.web_accepts, 0);  // Containment held every time.
  EXPECT_EQ(f.sub->containment().flows_decided(), 1u);
  EXPECT_EQ(f.sub->router().cache_hits(), 2u);
}

TEST(VerdictCacheFarm, RewriteAlwaysTakesTheShimRoundTrip) {
  // Even a policy that (incorrectly) asks for its REWRITE decisions to
  // be cached gets a shim round trip per flow: the containment server
  // refuses to mark REWRITE responses cacheable, so a warm cache never
  // forms and every flow is decided afresh.
  class GreedyRewritePolicy : public cs::Policy {
   public:
    GreedyRewritePolicy() : cs::Policy("GreedyRewrite") {}
    cs::Decision decide(const cs::FlowInfo&) override {
      return cs::Decision::rewrite("proxied").cached(
          shim::CacheScope::kDstEndpoint);
    }
    std::unique_ptr<cs::RewriteHandler> make_rewrite_handler(
        const cs::FlowInfo&) override {
      class Banner : public cs::RewriteHandler {
        void on_inmate_data(cs::RewriteContext& ctx,
                            std::span<const std::uint8_t>) override {
          ctx.send_to_inmate(std::string_view("250 proxied\r\n"));
        }
      };
      return std::make_unique<Banner>();
    }
  };
  CacheFarm f;
  f.bind(std::make_shared<GreedyRewritePolicy>());
  EXPECT_EQ(f.exchange("HELO a\r\n"), "250 proxied\r\n");
  EXPECT_EQ(f.exchange("HELO b\r\n"), "250 proxied\r\n");
  EXPECT_EQ(f.exchange("HELO c\r\n"), "250 proxied\r\n");
  // One decision per flow — a warm cache cannot short-circuit REWRITE.
  EXPECT_EQ(f.sub->containment().flows_decided(), 3u);
  EXPECT_EQ(f.sub->router().cache_hits(), 0u);
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 0u);
}

TEST(VerdictCacheFarm, PolicyEpochBumpFlushesTheCache) {
  CacheFarm f;
  f.bind(std::make_shared<CacheablePolicy>(shim::Verdict::kForward,
                                           shim::CacheScope::kDstEndpoint));
  EXPECT_EQ(f.exchange("warm"), "warm");
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 1u);

  // A containment reconfiguration bumps the policy epoch: every cached
  // verdict predates the new policy set and must go.
  f.sub->configure_containment("");
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 0u);
  EXPECT_GE(f.counter("cache_flush"), 1u);

  // The next flow takes a fresh shim round trip under the new epoch.
  f.bind(std::make_shared<CacheablePolicy>(shim::Verdict::kForward,
                                           shim::CacheScope::kDstEndpoint));
  EXPECT_EQ(f.exchange("fresh"), "fresh");
  EXPECT_EQ(f.sub->containment().flows_decided(), 2u);
}

TEST(VerdictCacheFarm, RevertTriggerFlushesVlanAndBlocksEscape) {
  // The explicit escape-attempt case: an inmate earns a cached FORWARD,
  // is then reverted (its trigger fires REVERT), and the policy flips to
  // deny-all — modelling "the reverted image must not inherit the old
  // machine's verdicts". If the revert did not flush the VLAN's cache,
  // the stale FORWARD entry would admit the new flow upstream: a
  // containment escape.
  CacheFarm f;
  auto policy = std::make_shared<CacheablePolicy>(
      shim::Verdict::kForward, shim::CacheScope::kDstEndpoint);
  f.bind(policy);
  EXPECT_EQ(f.exchange("before"), "before");
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 1u);
  EXPECT_EQ(f.web_accepts, 1);

  // The inmate's activity trigger fires a REVERT lifecycle action.
  const std::uint16_t vlan = f.sub->router().config().vlan_first;
  obs::FarmEvent trigger;
  trigger.kind = obs::FarmEvent::Kind::kTriggerFired;
  trigger.subfarm = f.sub->name();
  trigger.vlan = vlan;
  trigger.trigger_action = "REVERT";
  f.farm.telemetry().bus().publish(trigger);
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 0u);
  EXPECT_GE(f.counter("cache_flush"), 1u);

  // Post-revert the policy denies everything. The escape attempt: a
  // flow to the previously-cached destination.
  policy->deny_all();
  bool reset = false;
  auto conn = f.inmate->host().connect({Ipv4Addr(93, 184, 216, 34), 80});
  conn->on_reset = [&] { reset = true; };
  f.farm.run_for(util::seconds(15));
  EXPECT_TRUE(reset);
  EXPECT_EQ(f.web_accepts, 1);  // Nothing new escaped upstream.
  EXPECT_EQ(f.sub->containment().flows_decided(), 2u);  // Fresh decision.
}

TEST(VerdictCacheFarm, SafetyFilterStillCapsCachedVerdicts) {
  // Cached verdicts must not bypass the connection-rate caps: the
  // safety filter runs before the cache lookup, so hammering one
  // destination trips it even when nearly every verdict is a cache hit.
  CacheFarm f;
  f.bind(std::make_shared<CacheablePolicy>(shim::Verdict::kForward,
                                           shim::CacheScope::kDstEndpoint));
  // 600 connects to one destination, staggered 50ms apart so the cache
  // warms after flow #1 — all inside the one-minute safety window whose
  // per-destination cap is 500.
  std::vector<std::shared_ptr<net::TcpConnection>> conns;
  const auto start = f.farm.loop().now();
  for (int i = 0; i < 600; ++i) {
    f.farm.loop().schedule_at(start + util::milliseconds(50 * i), [&f, &conns] {
      auto conn = f.inmate->host().connect({Ipv4Addr(93, 184, 216, 34), 80});
      std::weak_ptr<net::TcpConnection> weak = conn;
      conn->on_connected = [weak] {
        if (auto c = weak.lock()) c->close();
      };
      conns.push_back(std::move(conn));
    });
  }
  f.farm.run_for(util::seconds(60));
  EXPECT_GT(f.sub->router().safety().rejected(), 0u);
  EXPECT_GT(f.sub->router().cache_hits(), 400u);
  // The containment server decided only a handful of flows — the rest
  // were cache hits or safety rejections.
  EXPECT_LT(f.sub->containment().flows_decided(), 10u);
}

TEST(VerdictCacheFarm, TtlExpiryForcesFreshDecision) {
  CacheFarm f;
  f.bind(std::make_shared<CacheablePolicy>(
      shim::Verdict::kForward, shim::CacheScope::kDstEndpoint,
      /*ttl_ms=*/40000));
  EXPECT_EQ(f.exchange("one"), "one");
  EXPECT_EQ(f.sub->containment().flows_decided(), 1u);
  // exchange() advances simulated time 30s per call: the second flow
  // lands inside the 40s TTL and is served from cache...
  EXPECT_EQ(f.exchange("two"), "two");
  EXPECT_EQ(f.sub->containment().flows_decided(), 1u);
  // ...while the third, 60s in, finds only an expired entry.
  EXPECT_EQ(f.exchange("three"), "three");
  EXPECT_EQ(f.sub->containment().flows_decided(), 2u);
  EXPECT_GE(f.counter("cache_expire"), 1u);
}

TEST(VerdictCacheFarm, DisablingTheCacheRestoresPerFlowDecisions) {
  core::FarmOptions options;
  options.datapath.verdict_cache = false;
  CacheFarm f(1, options);
  f.bind(std::make_shared<CacheablePolicy>(shim::Verdict::kForward,
                                           shim::CacheScope::kDstEndpoint));
  EXPECT_EQ(f.exchange("a"), "a");
  EXPECT_EQ(f.exchange("b"), "b");
  EXPECT_EQ(f.sub->containment().flows_decided(), 2u);
  EXPECT_EQ(f.sub->router().cache_hits(), 0u);
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 0u);
}

TEST(VerdictCacheFarm, UdpVerdictsAreCachedToo) {
  CacheFarm f;
  auto echo = f.web->udp_open(53);
  echo->on_datagram = [echo](util::Endpoint from,
                             std::vector<std::uint8_t> data) {
    echo->send_to(from, data);
  };
  f.bind(std::make_shared<CacheablePolicy>(shim::Verdict::kForward,
                                           shim::CacheScope::kDstEndpoint));
  int answers = 0;
  std::vector<std::shared_ptr<net::UdpSocket>> sockets;
  for (int i = 0; i < 3; ++i) {
    auto sock = f.inmate->host().udp_open(0);
    sock->on_datagram = [&](util::Endpoint, std::vector<std::uint8_t>) {
      ++answers;
    };
    sock->send_to({Ipv4Addr(93, 184, 216, 34), 53}, util::to_bytes("q"));
    sockets.push_back(std::move(sock));
    f.farm.run_for(util::seconds(10));
  }
  EXPECT_EQ(answers, 3);
  EXPECT_EQ(f.sub->containment().flows_decided(), 1u);
  EXPECT_EQ(f.sub->router().cache_hits(), 2u);
}

}  // namespace
}  // namespace gq

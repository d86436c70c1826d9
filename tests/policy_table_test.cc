// Compiled in-gateway policy table: unit tests of the match-action
// table's specificity ordering and epoch discipline, the rule -> response
// shim mapping, the shim wire v4 codec, and full-farm integration of the
// first-contact fast path it creates — flows matching a concrete compiled
// rule are resolved by the router with zero containment-server round
// trips, fallback arms still take the shim path, a table hit never seeds
// the verdict cache, and a policy reload invalidates table and cache in
// one atomic epoch bump.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "containment/policies.h"
#include "containment/policy.h"
#include "core/farm.h"
#include "gateway/policy_table.h"
#include "shim/table_sync.h"

namespace gq {
namespace {

using util::Endpoint;
using util::Ipv4Addr;

// --- PolicyTable unit tests -------------------------------------------------

shim::TableRule rule(shim::TableAction action, std::uint16_t priority = 0) {
  shim::TableRule r;
  r.action = action;
  r.priority = priority;
  return r;
}

shim::TableSync table_of(std::vector<shim::TableRule> rules,
                         std::uint64_t epoch = 0) {
  shim::TableSync sync;
  sync.epoch = epoch;
  sync.rules = std::move(rules);
  return sync;
}

const Endpoint kWeb{Ipv4Addr(93, 184, 216, 34), 80};

TEST(PolicyTable, LongestPrefixWins) {
  auto broad = rule(shim::TableAction::kForward);
  broad.dst_prefix = Ipv4Addr(93, 0, 0, 0);
  broad.prefix_len = 8;
  auto narrow = rule(shim::TableAction::kDrop);
  narrow.dst_prefix = Ipv4Addr(93, 184, 216, 0);
  narrow.prefix_len = 24;

  gw::PolicyTable table;
  ASSERT_TRUE(table.install(table_of({broad, narrow})));
  const auto* hit =
      table.lookup(16, shim::TableRule::kProtoTcp, kWeb);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, shim::TableAction::kDrop);
  // Outside the /24 but inside the /8: the broad rule matches.
  hit = table.lookup(16, shim::TableRule::kProtoTcp,
                     {Ipv4Addr(93, 10, 0, 1), 80});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, shim::TableAction::kForward);
  // Outside both: a miss.
  EXPECT_EQ(table.lookup(16, shim::TableRule::kProtoTcp,
                         {Ipv4Addr(8, 8, 8, 8), 80}),
            nullptr);
}

TEST(PolicyTable, NarrowerPortRangeWins) {
  auto any_port = rule(shim::TableAction::kForward);
  auto smtp_only = rule(shim::TableAction::kDrop);
  smtp_only.port_first = smtp_only.port_last = 25;

  gw::PolicyTable table;
  ASSERT_TRUE(table.install(table_of({any_port, smtp_only})));
  const auto* hit = table.lookup(16, shim::TableRule::kProtoTcp,
                                 {kWeb.addr, 25});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, shim::TableAction::kDrop);
  hit = table.lookup(16, shim::TableRule::kProtoTcp, kWeb);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, shim::TableAction::kForward);
}

TEST(PolicyTable, EarlierBindingBeatsLaterSpecificity) {
  // Priority is the policy-binding index: a catch-all from binding 0
  // must shadow even a /32 from binding 1, exactly like the containment
  // server's first-match-across-bindings decide() precedence.
  auto catch_all = rule(shim::TableAction::kForward, /*priority=*/0);
  auto host_rule = rule(shim::TableAction::kDrop, /*priority=*/1);
  host_rule.dst_prefix = kWeb.addr;
  host_rule.prefix_len = 32;

  gw::PolicyTable table;
  ASSERT_TRUE(table.install(table_of({host_rule, catch_all})));
  const auto* hit = table.lookup(16, shim::TableRule::kProtoTcp, kWeb);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action, shim::TableAction::kForward);
}

TEST(PolicyTable, VlanAndProtocolPartitionTheTable) {
  auto tcp_only = rule(shim::TableAction::kForward);
  tcp_only.vlan_first = 16;
  tcp_only.vlan_last = 31;
  tcp_only.proto = shim::TableRule::kProtoTcp;

  gw::PolicyTable table;
  ASSERT_TRUE(table.install(table_of({tcp_only})));
  EXPECT_NE(table.lookup(16, shim::TableRule::kProtoTcp, kWeb), nullptr);
  EXPECT_NE(table.lookup(31, shim::TableRule::kProtoTcp, kWeb), nullptr);
  EXPECT_EQ(table.lookup(32, shim::TableRule::kProtoTcp, kWeb), nullptr);
  EXPECT_EQ(table.lookup(16, shim::TableRule::kProtoUdp, kWeb), nullptr);

  auto any_proto = rule(shim::TableAction::kDrop);
  ASSERT_TRUE(table.install(table_of({any_proto})));
  EXPECT_NE(table.lookup(16, shim::TableRule::kProtoUdp, kWeb), nullptr);
}

TEST(PolicyTable, StaleEpochRejectedSameEpochIdempotent) {
  gw::PolicyTable table;
  ASSERT_TRUE(table.install(table_of({rule(shim::TableAction::kDrop)}, 5)));
  EXPECT_EQ(table.epoch(), 5u);
  EXPECT_EQ(table.size(), 1u);

  // Older epoch: refused, current table untouched.
  EXPECT_FALSE(
      table.install(table_of({rule(shim::TableAction::kForward)}, 4)));
  EXPECT_EQ(table.epoch(), 5u);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.rules()[0].action, shim::TableAction::kDrop);

  // Same epoch: accepted idempotently (UDP pushes may repeat).
  EXPECT_TRUE(
      table.install(table_of({rule(shim::TableAction::kForward)}, 5)));
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table.rules()[0].action, shim::TableAction::kForward);
}

// --- TableAction -> ResponseShim ------------------------------------------

const Endpoint kInmate{Ipv4Addr(10, 0, 0, 7), 40000};
const Endpoint kSink{Ipv4Addr(10, 3, 0, 3), 9999};

shim::TableRule named_rule(shim::TableAction action) {
  shim::TableRule r = rule(action);
  r.target = kSink;
  r.limit_bytes_per_sec = 4096;
  r.policy_name = "Compiled";
  r.annotation = "arm";
  return r;
}

TEST(TableRuleVerdict, ForwardAndDropKeepTheOriginalDestination) {
  for (const auto& [action, verdict] :
       {std::pair{shim::TableAction::kForward, shim::Verdict::kForward},
        std::pair{shim::TableAction::kDrop, shim::Verdict::kDrop}}) {
    SCOPED_TRACE(shim::table_action_name(action));
    const auto shim =
        shim::table_rule_verdict(named_rule(action), kInmate, kWeb);
    ASSERT_TRUE(shim);
    EXPECT_EQ(shim->verdict, verdict);
    EXPECT_EQ(shim->orig, kInmate);
    EXPECT_EQ(shim->resp, kWeb);
    EXPECT_EQ(shim->policy_name, "Compiled");
    EXPECT_EQ(shim->annotation, "arm");
    EXPECT_FALSE(shim->limit_bytes_per_sec);
    EXPECT_FALSE(shim->cacheable);
  }
}

TEST(TableRuleVerdict, RedirectAndReflectTakeTheRuleTarget) {
  for (const auto& [action, verdict] :
       {std::pair{shim::TableAction::kRedirect, shim::Verdict::kRedirect},
        std::pair{shim::TableAction::kReflect, shim::Verdict::kReflect}}) {
    SCOPED_TRACE(shim::table_action_name(action));
    const auto shim =
        shim::table_rule_verdict(named_rule(action), kInmate, kWeb);
    ASSERT_TRUE(shim);
    EXPECT_EQ(shim->verdict, verdict);
    EXPECT_EQ(shim->orig, kInmate);
    EXPECT_EQ(shim->resp, kSink);
    EXPECT_EQ(shim->policy_name, "Compiled");
    EXPECT_EQ(shim->annotation, "arm");
  }
}

TEST(TableRuleVerdict, LimitCarriesItsRateAndZeroMeansUnset) {
  auto limit = named_rule(shim::TableAction::kLimit);
  auto shim = shim::table_rule_verdict(limit, kInmate, kWeb);
  ASSERT_TRUE(shim);
  EXPECT_EQ(shim->verdict, shim::Verdict::kLimit);
  EXPECT_EQ(shim->resp, kWeb);
  EXPECT_EQ(shim->limit_bytes_per_sec, std::optional<std::int64_t>(4096));
  // Rate 0: no typed parameter, so the gateway applies its default rate.
  limit.limit_bytes_per_sec = 0;
  shim = shim::table_rule_verdict(limit, kInmate, kWeb);
  ASSERT_TRUE(shim);
  EXPECT_EQ(shim->verdict, shim::Verdict::kLimit);
  EXPECT_FALSE(shim->limit_bytes_per_sec);
}

TEST(TableRuleVerdict, FallbackIsNeverAVerdict) {
  // Not even with a target, a rate and names filled in.
  const auto fallback = named_rule(shim::TableAction::kFallback);
  EXPECT_FALSE(shim::table_rule_verdict(fallback, kInmate, kWeb));
}

// --- Shim wire v4 codec -----------------------------------------------------

TEST(TableSyncCodec, RoundTripPreservesEveryField) {
  shim::TableSync sync;
  sync.epoch = 0x1122334455667788ull;
  shim::TableRule a;
  a.vlan_first = 16;
  a.vlan_last = 31;
  a.dst_prefix = Ipv4Addr(10, 3, 0, 0);
  a.prefix_len = 16;
  a.proto = shim::TableRule::kProtoTcp;
  a.port_first = 25;
  a.port_last = 25;
  a.priority = 2;
  a.action = shim::TableAction::kReflect;
  a.target = {Ipv4Addr(10, 3, 0, 99), 9999};
  a.policy_name = "Rustock";
  a.annotation = "sink containment";
  shim::TableRule b;
  b.action = shim::TableAction::kLimit;
  b.limit_bytes_per_sec = 512 * 1024;
  sync.rules = {a, b};

  const auto frame = sync.encode();
  const auto parsed = shim::TableSync::parse(frame);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->epoch, sync.epoch);
  ASSERT_EQ(parsed->rules.size(), 2u);
  const auto& pa = parsed->rules[0];
  EXPECT_EQ(pa.vlan_first, a.vlan_first);
  EXPECT_EQ(pa.vlan_last, a.vlan_last);
  EXPECT_EQ(pa.dst_prefix, a.dst_prefix);
  EXPECT_EQ(pa.prefix_len, a.prefix_len);
  EXPECT_EQ(pa.proto, a.proto);
  EXPECT_EQ(pa.port_first, a.port_first);
  EXPECT_EQ(pa.port_last, a.port_last);
  EXPECT_EQ(pa.priority, a.priority);
  EXPECT_EQ(pa.action, a.action);
  EXPECT_EQ(pa.target, a.target);
  EXPECT_EQ(pa.policy_name, a.policy_name);
  EXPECT_EQ(pa.annotation, a.annotation);
  EXPECT_EQ(parsed->rules[1].action, shim::TableAction::kLimit);
  EXPECT_EQ(parsed->rules[1].limit_bytes_per_sec, b.limit_bytes_per_sec);
}

TEST(TableSyncCodec, EveryTruncationIsRejected) {
  shim::TableSync sync;
  sync.epoch = 7;
  auto r = rule(shim::TableAction::kRedirect);
  r.target = {Ipv4Addr(10, 3, 0, 9), 8080};
  r.annotation = "redirected";
  sync.rules = {r};
  const auto frame = sync.encode();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(shim::TableSync::parse(
        std::span<const std::uint8_t>(frame.data(), len)))
        << "truncation to " << len << " bytes parsed";
  }
  EXPECT_TRUE(shim::TableSync::parse(frame));
}

TEST(TableSyncCodec, CorruptionIsRejected) {
  shim::TableSync sync;
  sync.rules = {rule(shim::TableAction::kDrop)};
  const auto good = sync.encode();

  auto bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(shim::TableSync::parse(bad_magic));

  auto bad_version = good;
  bad_version[7] = shim::kShimVersion;  // v3 stream version on a v4 frame.
  EXPECT_FALSE(shim::TableSync::parse(bad_version));

  // Action opcode 0 and past-the-end are both invalid.
  auto bad_action = good;
  bad_action[shim::kTableSyncHeaderSize + 10] = 0;
  EXPECT_FALSE(shim::TableSync::parse(bad_action));
  bad_action[shim::kTableSyncHeaderSize + 10] = 7;
  EXPECT_FALSE(shim::TableSync::parse(bad_action));

  // A rule_count promising more rules than the frame carries.
  auto bad_count = good;
  bad_count[shim::kTableSyncHeaderSize - 3] = 9;
  EXPECT_FALSE(shim::TableSync::parse(bad_count));
}

// --- Full-farm integration --------------------------------------------------

// A compilable policy split across both datapaths: port 80 compiles to
// a concrete in-gateway FORWARD, port 25 is pinned to the shim path
// (kFallback), everything else drops in the table. decide() mirrors the
// rules exactly, and marks its decisions cacheable so the tests can
// observe that table hits never seed the cache.
class SplitPolicy : public cs::Policy {
 public:
  SplitPolicy() : cs::Policy("Split") {}

  cs::Decision decide(const cs::FlowInfo& info) override {
    if (info.dst().port == 80)
      return cs::Decision::forward("web allowed")
          .cached(shim::CacheScope::kDstEndpoint);
    if (info.dst().port == 25)
      return cs::Decision::drop("smtp contained")
          .cached(shim::CacheScope::kDstEndpoint);
    return cs::Decision::drop("default contained");
  }

  std::optional<std::vector<shim::TableRule>> compile() const override {
    shim::TableRule web;
    web.port_first = web.port_last = 80;
    web.action = shim::TableAction::kForward;
    web.annotation = "web allowed";
    shim::TableRule smtp;
    smtp.port_first = smtp.port_last = 25;
    smtp.action = shim::TableAction::kFallback;
    shim::TableRule rest;
    rest.action = shim::TableAction::kDrop;
    rest.annotation = "default contained";
    return std::vector<shim::TableRule>{web, smtp, rest};
  }
};

struct TableFarm {
  core::Farm farm;
  core::Subfarm* sub = nullptr;
  net::HostStack* web = nullptr;
  inm::Inmate* inmate = nullptr;
  int web_accepts = 0;

  explicit TableFarm(core::FarmOptions options = {}) : farm(options) {
    web = &farm.add_external_host("web", Ipv4Addr(93, 184, 216, 34));
    for (std::uint16_t port : {std::uint16_t{80}, std::uint16_t{25}}) {
      web->listen(port, [this](std::shared_ptr<net::TcpConnection> conn) {
        ++web_accepts;
        std::weak_ptr<net::TcpConnection> weak = conn;
        conn->on_data = [weak](std::span<const std::uint8_t> d) {
          if (auto c = weak.lock()) c->send(d);
        };
      });
    }
    sub = &farm.add_subfarm("Table");
    inmate = &sub->create_inmate(inm::HostingKind::kVm);
    farm.run_for(util::minutes(2));  // Boot + DHCP.
  }

  void bind(std::shared_ptr<cs::Policy> policy) {
    sub->bind_policy(sub->router().config().vlan_first,
                     sub->router().config().vlan_last, std::move(policy));
    // The compiled table rides a UDP datagram to the gateway: let the
    // loop deliver it before the first flow probes the table.
    farm.run_for(util::seconds(1));
  }

  // One echo exchange against web:<port>; returns the bytes echoed back.
  std::string exchange(const std::string& payload, std::uint16_t port = 80) {
    std::string answer;
    auto conn = inmate->host().connect({Ipv4Addr(93, 184, 216, 34), port});
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
    const auto* c = farm.metrics().find_counter("gw.Table." + name);
    return c ? c->value() : 0;
  }
};

TEST(PolicyTableFarm, FirstContactResolvedWithoutContainmentServer) {
  TableFarm f;
  std::vector<shim::VerdictSource> sources;
  f.farm.telemetry().bus().subscribe([&](const obs::FarmEvent& e) {
    if (e.kind == obs::FarmEvent::Kind::kFlowVerdict)
      sources.push_back(e.verdict_source);
  });
  f.bind(std::make_shared<cs::ForwardAllPolicy>());

  // Three first-contact flows to *distinct* ports of the same host would
  // each need a shim round trip (or at best one miss + two cache hits);
  // the compiled catch-all FORWARD resolves all three in-gateway.
  EXPECT_EQ(f.exchange("one"), "one");
  EXPECT_EQ(f.exchange("two", 25), "two");
  EXPECT_EQ(f.exchange("three"), "three");
  EXPECT_EQ(f.web_accepts, 3);
  EXPECT_EQ(f.sub->containment().flows_decided(), 0u);
  EXPECT_EQ(f.sub->router().table_hits(), 3u);
  EXPECT_EQ(f.counter("table_hit"), 3u);
  EXPECT_GE(f.counter("table_sync"), 1u);

  // Every verdict event is labelled with its source...
  ASSERT_EQ(sources.size(), 3u);
  for (auto source : sources)
    EXPECT_EQ(source, shim::VerdictSource::kTable);
  // ...and the trace index carries the same annotation.
  std::size_t table_in_trace = 0;
  for (const auto& flow : f.sub->router().trace().index().flows())
    if (flow.has_verdict &&
        flow.verdict_source == shim::VerdictSource::kTable)
      ++table_in_trace;
  EXPECT_EQ(table_in_trace, 3u);
}

TEST(PolicyTableFarm, DropRulesContainLocally) {
  TableFarm f;
  f.bind(std::make_shared<cs::DefaultDenyPolicy>());
  int resets = 0;
  for (int i = 0; i < 3; ++i) {
    auto conn = f.inmate->host().connect({Ipv4Addr(93, 184, 216, 34), 80});
    conn->on_reset = [&] { ++resets; };
    f.farm.run_for(util::seconds(15));
  }
  EXPECT_EQ(resets, 3);
  EXPECT_EQ(f.web_accepts, 0);  // Containment held, at line rate.
  EXPECT_EQ(f.sub->containment().flows_decided(), 0u);
  EXPECT_EQ(f.sub->router().table_hits(), 3u);
}

TEST(PolicyTableFarm, FallbackArmsStillReachTheContainmentServer) {
  TableFarm f;
  f.bind(std::make_shared<SplitPolicy>());

  // Port 80: concrete rule, in-gateway FORWARD, CS never consulted.
  EXPECT_EQ(f.exchange("web"), "web");
  EXPECT_EQ(f.sub->containment().flows_decided(), 0u);
  EXPECT_EQ(f.sub->router().table_hits(), 1u);

  // Port 25: the kFallback arm pins SMTP to the shim path — the CS
  // decides (and its DROP resets the connection).
  bool reset = false;
  auto conn = f.inmate->host().connect({Ipv4Addr(93, 184, 216, 34), 25});
  conn->on_reset = [&] { reset = true; };
  f.farm.run_for(util::seconds(15));
  EXPECT_TRUE(reset);
  EXPECT_EQ(f.web_accepts, 1);
  EXPECT_EQ(f.sub->containment().flows_decided(), 1u);
  EXPECT_EQ(f.sub->router().table_fallbacks(), 1u);
}

TEST(PolicyTableFarm, TableHitsNeverSeedTheVerdictCache) {
  // SplitPolicy marks its port-80 decision cacheable, but the flow is
  // resolved by the table — which must not insert a cache entry: the
  // cache is the shim path's memo, and a table entry already covers the
  // flow at zero cost.
  TableFarm f;
  f.bind(std::make_shared<SplitPolicy>());
  EXPECT_EQ(f.exchange("a"), "a");
  EXPECT_EQ(f.exchange("b"), "b");
  EXPECT_EQ(f.sub->router().table_hits(), 2u);
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 0u);
  EXPECT_EQ(f.counter("cache_insert"), 0u);
  EXPECT_EQ(f.counter("cache_hit"), 0u);
  // The cache was never even consulted for those flows.
  EXPECT_EQ(f.counter("cache_miss"), 0u);
}

TEST(PolicyTableFarm, EpochBumpFlushesTableAndCacheAtomically) {
  // Warm the verdict cache through a fallback-class flow, then install
  // a newer-epoch table directly: the install must flush the cache in
  // the same step it swaps the rules (one invalidation point for both
  // local datapaths).
  TableFarm f;
  f.bind(std::make_shared<SplitPolicy>());
  bool reset = false;
  auto conn = f.inmate->host().connect({Ipv4Addr(93, 184, 216, 34), 25});
  conn->on_reset = [&] { reset = true; };
  f.farm.run_for(util::seconds(15));
  ASSERT_TRUE(reset);
  ASSERT_EQ(f.sub->router().verdict_cache().size(), 1u);

  shim::TableSync newer;
  newer.epoch = f.sub->containment().policy_epoch() + 1;
  newer.rules = {rule(shim::TableAction::kForward)};
  ASSERT_TRUE(f.sub->router().install_policy_table(newer));
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 0u);
  EXPECT_GE(f.counter("cache_flush"), 1u);
  EXPECT_EQ(f.sub->router().policy_table().epoch(), newer.epoch);
  ASSERT_EQ(f.sub->router().policy_table().size(), 1u);

  // And the new table serves first contacts under the new epoch.
  EXPECT_EQ(f.exchange("fresh", 25), "fresh");
  EXPECT_GE(f.sub->router().table_hits(), 1u);
}

TEST(PolicyTableFarm, StaleSyncIsRejectedAndCounted) {
  TableFarm f;
  f.sub->configure_containment("[VLAN 16-31]\nDecider = ForwardAll\n");
  f.farm.run_for(util::seconds(1));
  const auto epoch = f.sub->router().policy_table().epoch();
  ASSERT_GE(epoch, 1u);

  shim::TableSync stale;
  stale.epoch = epoch - 1;
  stale.rules = {rule(shim::TableAction::kDrop)};
  EXPECT_FALSE(f.sub->router().install_policy_table(stale));
  EXPECT_EQ(f.sub->router().policy_table().epoch(), epoch);
  EXPECT_GE(f.counter("table_stale"), 1u);
  // The current-epoch table still serves.
  EXPECT_EQ(f.exchange("still"), "still");
  EXPECT_EQ(f.sub->containment().flows_decided(), 0u);
}

TEST(PolicyTableFarm, MidRunReloadResolvesInFlightAgainstNewEpoch) {
  // A flow caught mid-decision by a policy reload: under the old config
  // the CS delays decisions 5s (and, unbound, would deny); 1s into the
  // wait the operator reloads to ForwardAll. The drain fires after the
  // reload, so the decision resolves against the *new* policy set and
  // carries the new epoch — the flow connects, and nothing from the old
  // generation survives in either local datapath.
  TableFarm f;
  f.sub->configure_containment("[Overload]\nDecisionDelayMs = 5000\n");
  f.farm.run_for(util::seconds(1));

  // The router completes the inmate-side handshake while the verdict is
  // pending (it must, to capture the flow's first bytes for the shim),
  // so "connected" says nothing — the upstream leg opening does.
  std::string answer;
  auto conn = f.inmate->host().connect({Ipv4Addr(93, 184, 216, 34), 80});
  std::weak_ptr<net::TcpConnection> weak = conn;
  conn->on_connected = [weak] {
    if (auto c = weak.lock()) c->send("inflight");
  };
  conn->on_data = [&answer](std::span<const std::uint8_t> d) {
    answer.append(reinterpret_cast<const char*>(d.data()), d.size());
  };
  f.farm.run_for(util::seconds(1));  // Request shim now queued on the CS.
  ASSERT_EQ(f.web_accepts, 0);

  f.sub->configure_containment(
      "[VLAN 16-31]\nDecider = ForwardAll\n"
      "[Overload]\nDecisionDelayMs = 5000\n");
  const auto new_epoch = f.sub->containment().policy_epoch();
  f.farm.run_for(util::seconds(10));

  EXPECT_EQ(f.web_accepts, 1);
  EXPECT_EQ(answer, "inflight");
  EXPECT_EQ(f.sub->router().policy_table().epoch(), new_epoch);
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 0u);
  // Subsequent first contacts ride the reloaded table.
  EXPECT_EQ(f.exchange("after"), "after");
  EXPECT_GE(f.sub->router().table_hits(), 1u);
}

TEST(PolicyTableFarm, DisablingTheTableRestoresShimDecisions) {
  core::FarmOptions options;
  options.datapath.policy_table = false;
  TableFarm f(options);
  f.bind(std::make_shared<cs::ForwardAllPolicy>());
  EXPECT_EQ(f.exchange("a"), "a");
  EXPECT_EQ(f.exchange("b"), "b");
  EXPECT_EQ(f.sub->containment().flows_decided(), 2u);
  EXPECT_EQ(f.sub->router().table_hits(), 0u);
  // The table was still pushed and installed; it is just never probed.
  EXPECT_FALSE(f.sub->router().policy_table().empty());
}

TEST(PolicyTableFarm, DatapathOptionsFlowThroughToEveryLayer) {
  core::FarmOptions options;
  options.datapath.verdict_cache = false;
  options.datapath.policy_table = false;
  TableFarm f(options);

  // With the table off, a compilable policy still works — every flow
  // just pays the shim round trip again; with the cache off, SplitPolicy's
  // cacheable port-80 verdict is never looked up nor inserted.
  f.bind(std::make_shared<SplitPolicy>());
  EXPECT_EQ(f.exchange("slow"), "slow");
  EXPECT_EQ(f.exchange("again"), "again");
  EXPECT_EQ(f.sub->containment().flows_decided(), 2u);
  EXPECT_EQ(f.sub->router().table_hits(), 0u);
  EXPECT_EQ(f.counter("cache_hit") + f.counter("cache_miss") +
                f.counter("cache_insert"),
            0u);
  EXPECT_EQ(f.sub->router().verdict_cache().size(), 0u);
}

}  // namespace
}  // namespace gq

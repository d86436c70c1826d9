// Differential safety proof for the compiled in-gateway policy table:
// the table datapath is only admissible if it is *observably identical*
// to the shim path it short-circuits. Two same-seed farms — one with
// the table disabled (every verdict a containment-server round trip),
// one with it enabled — run a multi-policy configuration over identical
// seeded traffic, and the per-flow verdict facts (VLAN, protocol,
// original destination, verdict, policy, annotation, limit) must be
// bit-identical between them. Both runs feed the soak harness's escape
// oracle (every upstream emission needs an authorizing verdict), the
// table-on run must actually exercise the table, the containment server
// may receive only fallback-class flows, and two same-seed table-on
// runs must replay exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "containment/policy.h"
#include "core/farm.h"
#include "obs/events.h"
#include "packet/frame.h"
#include "util/strings.h"

namespace gq {
namespace {

using util::Ipv4Addr;

// TCP/UDP destination ports the traffic generator cycles through. 25
// and 80 land in the builtin spambot policies' kFallback arms; 8001-8006
// drive DiffPolicy through every table action incl. its REWRITE
// fallback; 9999 falls to the catch-all arms.
constexpr std::uint16_t kPorts[] = {25, 80, 443, 8001, 8002, 8003,
                                    8004, 8005, 8006, 9999};

// Destination ports that must stay on the shim path under the test's
// policy set: the spambot sink-hint arms (25), the REWRITE C&C filters
// (80), and DiffPolicy's REWRITE arm (8006).
bool fallback_class(std::uint16_t port) {
  return port == 25 || port == 80 || port == 8006;
}

// A fully compiled policy covering every concrete table action plus a
// REWRITE fallback arm — the custom-policy half of the differential
// surface (the INI bindings cover the builtins).
class DiffPolicy : public cs::Policy {
 public:
  explicit DiffPolicy(util::Endpoint sink)
      : cs::Policy("Diff"), sink_(sink) {}

  cs::Decision decide(const cs::FlowInfo& info) override {
    switch (info.dst().port) {
      case 8001: return cs::Decision::forward("allowed");
      case 8002: return cs::Decision::limit(4096);
      case 8003: return cs::Decision::drop("denied");
      case 8004: return cs::Decision::redirect(sink_, "redirected");
      case 8005: return cs::Decision::reflect(sink_, "reflected");
      case 8006: return cs::Decision::rewrite("proxied");
      default:   return cs::Decision::drop("contained");
    }
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

  std::optional<std::vector<std::uint8_t>> rewrite_udp(
      const cs::FlowInfo&, std::span<const std::uint8_t> payload) override {
    std::vector<std::uint8_t> reply(payload.begin(), payload.end());
    std::reverse(reply.begin(), reply.end());
    return reply;
  }

  std::optional<std::vector<shim::TableRule>> compile() const override {
    auto port_action = [](std::uint16_t port, shim::TableAction action,
                          std::string annotation) {
      shim::TableRule rule;
      rule.port_first = rule.port_last = port;
      rule.action = action;
      rule.annotation = std::move(annotation);
      return rule;
    };
    auto forward = port_action(8001, shim::TableAction::kForward, "allowed");
    auto limit = port_action(8002, shim::TableAction::kLimit,
                             "limit 4096 B/s");
    limit.limit_bytes_per_sec = 4096;
    auto drop = port_action(8003, shim::TableAction::kDrop, "denied");
    auto redirect =
        port_action(8004, shim::TableAction::kRedirect, "redirected");
    redirect.target = sink_;
    auto reflect =
        port_action(8005, shim::TableAction::kReflect, "reflected");
    reflect.target = sink_;
    // REWRITE needs the CS in-path: pin its arm to the shim.
    auto rewrite = port_action(8006, shim::TableAction::kFallback, "");
    shim::TableRule rest;
    rest.action = shim::TableAction::kDrop;
    rest.annotation = "contained";
    return std::vector<shim::TableRule>{forward,  limit,   drop,
                                        redirect, reflect, rewrite, rest};
  }

 private:
  util::Endpoint sink_;
};

struct DiffResult {
  // Source-independent per-flow verdict facts, sorted: what the inmate
  // (and the outside world) can observe of each verdict, with no trace
  // of *where* it was resolved.
  std::vector<std::string> verdict_facts;
  // The full replay-grade event stream (source labels included).
  std::string event_log;
  std::vector<std::string> escapes;
  std::uint64_t table_hits = 0;
  std::uint64_t table_fallbacks = 0;
  std::uint64_t cs_decisions = 0;
  std::uint64_t upstream_ip_frames = 0;
  // Destination ports of flows the containment server decided.
  std::vector<std::uint16_t> cs_ports;
};

DiffResult run_diff(bool table_on, std::uint64_t seed) {
  core::FarmOptions options;
  options.seed = seed;
  options.datapath.policy_table = table_on;
  core::Farm farm(options);

  // Three external echo hosts so consecutive waves are genuine first
  // contacts (a verdict cache or flow-table memo cannot mask the
  // decision path under test).
  const Ipv4Addr echo_addrs[] = {Ipv4Addr(93, 184, 216, 34),
                                 Ipv4Addr(198, 51, 100, 7),
                                 Ipv4Addr(203, 0, 113, 99)};
  std::vector<std::shared_ptr<net::UdpSocket>> echo_udp;
  for (const auto& addr : echo_addrs) {
    auto& echo = farm.add_external_host("echo" + addr.str(), addr);
    for (const auto port : kPorts) {
      echo.listen(port, [](std::shared_ptr<net::TcpConnection> conn) {
        std::weak_ptr<net::TcpConnection> weak = conn;
        conn->on_data = [weak](std::span<const std::uint8_t> data) {
          if (auto c = weak.lock()) c->send(data);
        };
      });
      auto socket = echo.udp_open(port);
      auto* raw = socket.get();
      socket->on_datagram = [raw](util::Endpoint from,
                                  std::vector<std::uint8_t> data) {
        raw->send_to(from, data);
      };
      echo_udp.push_back(std::move(socket));
    }
  }

  auto& sub = farm.add_subfarm("Diff");
  sub.add_catchall_sink();
  sub.add_smtp_sink({});  // Registers "smtpsink" for the spambot arms.
  // Multi-policy INI: two spambot families (whose SMTP/C&C arms compile
  // to kFallback), a pure reflector, and a pure default-deny.
  sub.configure_containment(R"(
[VLAN 16-17]
Decider = Rustock

[VLAN 18-19]
Decider = Grum

[VLAN 20-21]
Decider = SinkAll

[VLAN 22-23]
Decider = DefaultDeny
)");
  const auto sink = sub.policy_env().services.at("sink");
  // Plus a fully compiled custom policy covering every table action.
  sub.bind_policy(24, 25, std::make_shared<DiffPolicy>(sink));

  // --- Escape oracle (identical to the soak harness) ---------------------
  const auto external_net = sub.router().config().external_net;
  struct UpstreamRecord {
    std::int64_t usec;
    pkt::FlowProto proto;
    Ipv4Addr src, dst;
    std::uint16_t sport, dport;
  };
  std::vector<UpstreamRecord> upstream;
  farm.gateway().set_upstream_tap(
      [&](util::TimePoint at, const std::vector<std::uint8_t>& bytes) {
        const auto decoded = pkt::decode_frame(bytes);
        if (!decoded || !decoded->ip) return;
        if (!decoded->is_tcp() && !decoded->is_udp()) return;
        if (!external_net.contains(decoded->ip->src)) return;
        upstream.push_back({at.usec,
                            decoded->is_tcp() ? pkt::FlowProto::kTcp
                                              : pkt::FlowProto::kUdp,
                            decoded->ip->src, decoded->ip->dst,
                            decoded->src_port(), decoded->dst_port()});
      });

  // --- Event capture ----------------------------------------------------
  std::vector<obs::FarmEvent> events;
  std::ostringstream log;
  farm.telemetry().bus().subscribe([&](const obs::FarmEvent& e) {
    events.push_back(e);
    log << obs::format_event(e) << '\n';
  });

  // --- Inmates: VLANs 16-25, one per policy-range slot ------------------
  std::vector<inm::Inmate*> inmates;
  for (int i = 0; i < 10; ++i)
    inmates.push_back(&sub.create_inmate(inm::HostingKind::kVm));

  // --- Traffic: seed-derived (inmate, port, destination) draws ----------
  // The generator rng is derived from the farm seed (not shared with the
  // fabric) so both farms of a pair see the identical schedule, while
  // different seeds exercise different slices of the policy × port
  // space — including every FORWARD/LIMIT arm, whose flows are the ones
  // the escape oracle audits upstream.
  std::vector<std::shared_ptr<net::TcpConnection>> conns;
  std::vector<std::shared_ptr<net::UdpSocket>> udps;
  auto launch_flow = [&](std::size_t who, std::uint16_t port,
                         Ipv4Addr dst) {
    auto& host = inmates[who]->host();
    if (!host.configured()) return;  // Still booting.
    auto conn = host.connect({dst, port});
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak] {
      if (auto c = weak.lock()) c->send(std::string_view("hello gq\r\n"));
    };
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) c->close();
    };
    conns.push_back(std::move(conn));
    auto socket = host.udp_open(0);
    const std::vector<std::uint8_t> ping = {'p', 'i', 'n', 'g'};
    socket->send_to({dst, port}, ping);
    udps.push_back(std::move(socket));
  };
  util::Rng traffic_rng(seed ^ 0x7AB1E5EEDull);
  const auto duration = util::minutes(8);
  for (auto at = util::seconds(60).usec; at < util::minutes(7).usec;
       at += util::seconds(5).usec) {
    for (int burst = 0; burst < 3; ++burst) {
      const auto who = traffic_rng.next() % inmates.size();
      const auto port = kPorts[traffic_rng.next() % std::size(kPorts)];
      const auto dst =
          echo_addrs[traffic_rng.next() % std::size(echo_addrs)];
      const auto jitter =
          static_cast<std::int64_t>(traffic_rng.next() % 3'000'000);
      farm.loop().schedule_at(
          util::TimePoint{at + jitter},
          [&launch_flow, who, port, dst] { launch_flow(who, port, dst); });
    }
  }
  farm.run_for(duration);

  // --- Distill the observable verdict facts + audit escapes -------------
  DiffResult result;
  std::map<std::uint16_t, std::set<Ipv4Addr>> globals_by_vlan;
  std::set<std::tuple<pkt::FlowProto, Ipv4Addr, Ipv4Addr, std::uint16_t>>
      authorized;
  for (const auto& e : events) {
    if (e.kind == obs::FarmEvent::Kind::kDhcpBind)
      globals_by_vlan[e.vlan].insert(e.inmate_global);
    if (e.kind != obs::FarmEvent::Kind::kFlowVerdict) continue;
    std::ostringstream fact;
    fact << e.vlan << (e.proto == pkt::FlowProto::kTcp ? " tcp " : " udp ")
         << e.orig_dst.str() << ' ' << shim::verdict_name(e.verdict)
         << " policy=" << e.policy_name << " ann=" << e.annotation;
    if (e.limit_bytes_per_sec) fact << " limit=" << *e.limit_bytes_per_sec;
    result.verdict_facts.push_back(fact.str());
    if (e.verdict_source == shim::VerdictSource::kShim)
      result.cs_ports.push_back(e.orig_dst.port);
    if (e.verdict != shim::Verdict::kForward &&
        e.verdict != shim::Verdict::kLimit &&
        e.verdict != shim::Verdict::kRewrite)
      continue;
    for (const auto& global : globals_by_vlan[e.vlan])
      authorized.insert({e.proto, global, e.orig_dst.addr, e.orig_dst.port});
  }
  std::sort(result.verdict_facts.begin(), result.verdict_facts.end());
  for (const auto& rec : upstream) {
    ++result.upstream_ip_frames;
    if (!authorized.count({rec.proto, rec.src, rec.dst, rec.dport}))
      result.escapes.push_back(util::format(
          "t=%lld %s:%u -> %s:%u without an authorizing verdict",
          static_cast<long long>(rec.usec), rec.src.str().c_str(), rec.sport,
          rec.dst.str().c_str(), rec.dport));
  }
  result.event_log = log.str();
  result.table_hits = sub.router().table_hits();
  result.table_fallbacks = sub.router().table_fallbacks();
  result.cs_decisions = sub.containment().flows_decided();
  return result;
}

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

TEST(PolicyDiff, TableOnAndTableOffProduceIdenticalVerdictStreams) {
  const auto off = run_diff(/*table_on=*/false, 0xD1FF);
  const auto on = run_diff(/*table_on=*/true, 0xD1FF);

  // The gate itself: bit-identical observable verdict facts.
  EXPECT_EQ(off.verdict_facts, on.verdict_facts);
  ASSERT_GT(on.verdict_facts.size(), 50u);

  // Both farms must actually have carried traffic, and neither may have
  // leaked a single unauthorized frame upstream.
  EXPECT_GT(off.upstream_ip_frames, 0u);
  EXPECT_GT(on.upstream_ip_frames, 0u);
  EXPECT_TRUE(off.escapes.empty()) << join(off.escapes);
  EXPECT_TRUE(on.escapes.empty()) << join(on.escapes);

  // The comparison is vacuous unless the table-on run really resolved
  // first contacts in-gateway.
  EXPECT_EQ(off.table_hits, 0u);
  EXPECT_GT(on.table_hits, 50u);
  EXPECT_GT(on.table_fallbacks, 0u);
  EXPECT_LT(on.cs_decisions, off.cs_decisions);

  // With the table on, the containment server saw *only* fallback-class
  // flows: the spambot SMTP/C&C arms and the REWRITE arm.
  for (const auto port : on.cs_ports)
    EXPECT_TRUE(fallback_class(port))
        << "CS decided a table-class flow to port " << port;
}

TEST(PolicyDiff, SameSeedTableOnRunsReplayExactly) {
  // Determinism of the table datapath itself: two table-on runs with
  // the same seed produce byte-identical event streams (source labels
  // included) — the replay/trace machinery depends on this.
  const auto a = run_diff(/*table_on=*/true, 0xF00D);
  const auto b = run_diff(/*table_on=*/true, 0xF00D);
  EXPECT_EQ(a.event_log, b.event_log);
  EXPECT_GT(a.table_hits, 0u);

  // And a different seed actually changes the stream (the equality
  // above is not comparing empty or degenerate logs).
  const auto c = run_diff(/*table_on=*/true, 0xBEEF);
  EXPECT_NE(a.event_log, c.event_log);
}

}  // namespace
}  // namespace gq

// Containment-escape soak harness (the paper's §5 argument under
// adversarial network conditions). Each soak builds a full farm, drives
// TCP and UDP flows through all six verdicts for simulated tens of
// minutes while the fabric drops, duplicates, reorders, jitters and
// flaps — including scheduled containment-server outages — and checks
// two invariants at the end:
//
//   1. Zero containment escapes, ever: every IP frame the gateway emits
//      toward the external network is matched against the verdict event
//      stream; a frame whose (source global addr, original destination)
//      pair was never authorized by a FORWARD / LIMIT / REWRITE verdict
//      is an escape. The oracle taps Gateway::transmit_upstream — the
//      single choke point all upstream emissions funnel through — so a
//      routing bug cannot sidestep it.
//   2. Bit-identical replay: the full FarmEvent stream and the upstream
//      frame log are byte-identical across runs with the same seed, and
//      differ across seeds (catching accidental Rng sharing between
//      links).
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
#include "netsim/fault.h"
#include "obs/events.h"
#include "packet/frame.h"
#include "util/strings.h"

namespace gq {
namespace {

using util::Ipv4Addr;

// The six verdicts keyed by destination port, for both TCP and UDP.
constexpr std::uint16_t kPorts[] = {8001, 8002, 8003, 8004, 8005, 8006};

class CyclingPolicy : public cs::Policy {
 public:
  explicit CyclingPolicy(util::Endpoint sink, bool cacheable = false)
      : cs::Policy("Cycling"), sink_(sink), cacheable_(cacheable) {}

  cs::Decision decide(const cs::FlowInfo& info) override {
    switch (info.dst().port) {
      case 8001: return maybe_cached(cs::Decision::forward());
      case 8002: return maybe_cached(cs::Decision::limit(4096));
      case 8003: return maybe_cached(cs::Decision::drop("denied"));
      case 8004:
        return maybe_cached(cs::Decision::redirect(sink_, "redirected"));
      case 8005:
        return maybe_cached(cs::Decision::reflect(sink_, "reflected"));
      case 8006: return cs::Decision::rewrite("proxied");  // Never cached.
      default:   return cs::Decision::drop("unexpected port");
    }
  }

  std::unique_ptr<cs::RewriteHandler> make_rewrite_handler(
      const cs::FlowInfo&) override {
    // Minimal content-control proxy: answer the inmate directly without
    // ever opening the outbound leg.
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

 private:
  cs::Decision maybe_cached(cs::Decision decision) {
    // The verdict is a pure function of the destination endpoint, so
    // dst-endpoint scope is exact. The TTL must outlive the wave
    // cycle: each port repeats only every 90s (6 ports, 15s waves), so
    // the 60s subfarm default would expire every entry between visits.
    return cacheable_ ? std::move(decision).cached(
                            shim::CacheScope::kDstEndpoint, 300'000)
                      : decision;
  }

  util::Endpoint sink_;
  bool cacheable_;
};

struct SoakOptions {
  std::uint64_t seed = 0x50414B;
  int inmates = 2;
  util::Duration duration = util::minutes(10);
  util::Duration wave_interval = util::seconds(15);
  sim::FaultProfile inmate_link;    // Applied to every inmate NIC link.
  sim::FaultProfile upstream_link;  // Applied to the gateway uplink.
  sim::FaultProfile cs_link;        // Applied to the CS management link.
  std::string containment_extra;    // Extra INI: [FailClosed] / [Overload].
  bool cacheable = false;  // Policy opts its verdicts into the gateway cache.
  bool burst = false;  // Fire 12 back-to-back flows at t=90s (overload).
};

struct SoakResult {
  std::string event_log;     // Serialized FarmEvent stream.
  std::string upstream_log;  // Serialized gateway upstream emissions.
  std::vector<std::string> escapes;
  std::map<shim::Verdict, std::uint64_t> verdict_totals;
  std::uint64_t fail_closed = 0;
  std::uint64_t verdict_timeouts = 0;
  std::uint64_t shim_retries = 0;
  std::uint64_t shed_refused = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t upstream_ip_frames = 0;
  std::uint64_t fault_dropped = 0;  // Across all impaired links.
  std::uint64_t fail_closed_reflects = 0;  // FailClosed verdicts = REFLECT.
};

SoakResult run_soak(const SoakOptions& opts) {
  core::FarmOptions farm_options;
  farm_options.seed = opts.seed;
  core::Farm farm(farm_options);

  // Simulated Internet: one echo server answering every soak port.
  const Ipv4Addr echo_addr(93, 184, 216, 34);
  auto& echo = farm.add_external_host("echo", echo_addr);
  std::vector<std::shared_ptr<net::UdpSocket>> echo_udp;
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

  auto& sub = farm.add_subfarm("Soak");
  sub.add_catchall_sink();  // Registers the "sink" service.
  if (!opts.containment_extra.empty())
    sub.configure_containment(opts.containment_extra);
  const auto sink = sub.policy_env().services.at("sink");
  sub.bind_policy(sub.router().config().vlan_first,
                  sub.router().config().vlan_last,
                  std::make_shared<CyclingPolicy>(sink, opts.cacheable));

  // --- Escape oracle: record every upstream IP emission ------------------
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

  // --- Event stream capture ---------------------------------------------
  std::vector<obs::FarmEvent> events;
  std::ostringstream log;
  farm.telemetry().bus().subscribe([&](const obs::FarmEvent& e) {
    events.push_back(e);
    log << obs::format_event(e) << '\n';
  });

  // --- Inmates and link faults ------------------------------------------
  std::vector<inm::Inmate*> inmates;
  for (int i = 0; i < opts.inmates; ++i)
    inmates.push_back(&sub.create_inmate(inm::HostingKind::kVm));
  std::vector<sim::Port*> impaired;
  if (opts.inmate_link.enabled())
    for (auto* inmate : inmates) {
      farm.set_link_faults(inmate->host().nic(), opts.inmate_link);
      impaired.push_back(&inmate->host().nic());
    }
  if (opts.upstream_link.enabled()) {
    farm.set_link_faults(farm.gateway().upstream_port(), opts.upstream_link);
    impaired.push_back(&farm.gateway().upstream_port());
  }
  if (opts.cs_link.enabled()) {
    farm.set_link_faults(sub.containment_host().nic(), opts.cs_link);
    impaired.push_back(&sub.containment_host().nic());
  }

  // --- Traffic: one TCP + one UDP flow per wave, ports cycling ----------
  std::vector<std::shared_ptr<net::TcpConnection>> conns;
  std::vector<std::shared_ptr<net::UdpSocket>> udps;
  auto launch_flow = [&](int index) {
    auto& host = inmates[index % inmates.size()]->host();
    if (!host.configured()) return;  // Still booting / reverting.
    const auto port = kPorts[index % 6];
    auto conn = host.connect({echo_addr, port});
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
    socket->send_to({echo_addr, port}, ping);
    udps.push_back(std::move(socket));
  };
  int wave = 0;
  for (auto at = util::seconds(60); at.usec < opts.duration.usec;
       at = at + opts.wave_interval) {
    farm.loop().schedule_at(util::TimePoint{at.usec},
                            [&launch_flow, wave] { launch_flow(wave); });
    ++wave;
  }
  if (opts.burst)
    for (int i = 0; i < 12; ++i)
      farm.loop().schedule_at(
          util::TimePoint{util::seconds(90).usec + i * 50'000},
          [&launch_flow, i] { launch_flow(i * 6); });  // All port 8001.

  farm.run_for(opts.duration);

  // --- End-of-run escape audit ------------------------------------------
  // Authorized pairs: (inmate global addr, original destination) for
  // every FORWARD / LIMIT / REWRITE verdict, with globals resolved from
  // the DHCP bind events of the same VLAN.
  std::map<std::uint16_t, std::set<Ipv4Addr>> globals_by_vlan;
  std::set<std::tuple<pkt::FlowProto, Ipv4Addr, Ipv4Addr, std::uint16_t>>
      authorized;
  SoakResult result;
  for (const auto& e : events) {
    if (e.kind == obs::FarmEvent::Kind::kDhcpBind)
      globals_by_vlan[e.vlan].insert(e.inmate_global);
    if (e.kind != obs::FarmEvent::Kind::kFlowVerdict) continue;
    if (e.policy_name == "FailClosed" &&
        e.verdict == shim::Verdict::kReflect)
      ++result.fail_closed_reflects;
    if (e.verdict != shim::Verdict::kForward &&
        e.verdict != shim::Verdict::kLimit &&
        e.verdict != shim::Verdict::kRewrite)
      continue;
    for (const auto& global : globals_by_vlan[e.vlan])
      authorized.insert({e.proto, global, e.orig_dst.addr, e.orig_dst.port});
  }
  std::ostringstream uplog;
  for (const auto& rec : upstream) {
    ++result.upstream_ip_frames;
    uplog << rec.usec << (rec.proto == pkt::FlowProto::kTcp ? " tcp " : " udp ")
          << rec.src.str() << ':' << rec.sport << " > " << rec.dst.str()
          << ':' << rec.dport << '\n';
    if (!authorized.count({rec.proto, rec.src, rec.dst, rec.dport}))
      result.escapes.push_back(util::format(
          "t=%lld %s:%u -> %s:%u without an authorizing verdict",
          static_cast<long long>(rec.usec), rec.src.str().c_str(), rec.sport,
          rec.dst.str().c_str(), rec.dport));
  }

  result.event_log = log.str();
  result.upstream_log = uplog.str();
  result.verdict_totals = farm.reporter().verdict_totals();
  const auto& metrics = farm.metrics();
  auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto* c = metrics.find_counter(name);
    return c ? c->value() : 0;
  };
  result.fail_closed = counter("gw.Soak.fail_closed");
  result.verdict_timeouts = counter("gw.Soak.verdict_timeouts");
  result.shim_retries = counter("gw.Soak.shim_retries");
  result.shed_refused = counter("cs.Soak.shed_refused");
  result.cache_hits = counter("gw.Soak.cache_hit");
  result.cache_inserts = counter("gw.Soak.cache_insert");
  for (const auto* port : impaired) {
    result.fault_dropped += port->fault_counters().dropped +
                            port->fault_counters().flap_dropped;
    if (port->peer())
      result.fault_dropped += port->peer()->fault_counters().dropped +
                              port->peer()->fault_counters().flap_dropped;
  }
  return result;
}

// Pretty-printer so a failing escape assertion names the frames.
std::string join_escapes(const SoakResult& result) {
  std::string out;
  for (const auto& e : result.escapes) out += e + "\n";
  return out;
}

// --- The escalation ladder: zero escapes under every profile --------------

TEST(Soak, CleanFabricCoversAllSixVerdicts) {
  SoakOptions opts;
  opts.duration = util::minutes(12);
  const auto result = run_soak(opts);
  EXPECT_TRUE(result.escapes.empty()) << join_escapes(result);
  EXPECT_GT(result.upstream_ip_frames, 0u);
  EXPECT_EQ(result.fault_dropped, 0u);
  EXPECT_EQ(result.fail_closed, 0u);
  auto totals = result.verdict_totals;
  EXPECT_GE(totals[shim::Verdict::kForward], 1u);
  EXPECT_GE(totals[shim::Verdict::kLimit], 1u);
  EXPECT_GE(totals[shim::Verdict::kDrop], 1u);
  EXPECT_GE(totals[shim::Verdict::kRedirect], 1u);
  EXPECT_GE(totals[shim::Verdict::kReflect], 1u);
  EXPECT_GE(totals[shim::Verdict::kRewrite], 1u);
}

TEST(Soak, ModerateLossKeepsContainment) {
  SoakOptions opts;
  opts.duration = util::minutes(10);
  opts.inmate_link.drop_probability = 0.05;
  opts.inmate_link.jitter_max = util::milliseconds(2);
  opts.upstream_link.drop_probability = 0.10;
  opts.upstream_link.jitter_max = util::milliseconds(2);
  opts.cs_link.drop_probability = 0.05;
  const auto result = run_soak(opts);
  EXPECT_TRUE(result.escapes.empty()) << join_escapes(result);
  EXPECT_GT(result.upstream_ip_frames, 0u);
  EXPECT_GT(result.fault_dropped, 0u);
}

TEST(Soak, HeavyLossReorderingAndDuplicationKeepsContainment) {
  SoakOptions opts;
  opts.duration = util::minutes(15);
  opts.inmate_link.drop_probability = 0.10;
  opts.inmate_link.reorder_probability = 0.2;
  opts.inmate_link.reorder_window = util::milliseconds(20);
  opts.upstream_link.drop_probability = 0.30;
  opts.upstream_link.duplicate_probability = 0.10;
  opts.upstream_link.reorder_probability = 0.30;
  opts.upstream_link.reorder_window = util::milliseconds(20);
  opts.upstream_link.jitter_max = util::milliseconds(5);
  opts.cs_link.drop_probability = 0.25;
  opts.containment_extra = "[FailClosed]\nDeadlineMs = 10000\n";
  const auto result = run_soak(opts);
  EXPECT_TRUE(result.escapes.empty()) << join_escapes(result);
  EXPECT_GT(result.upstream_ip_frames, 0u);
  EXPECT_GT(result.fault_dropped, 0u);
  // Shims do get lost on a 25%-lossy management link: the gateway's
  // retry machinery must have engaged.
  EXPECT_GT(result.shim_retries, 0u);
}

// --- Fail-closed behaviour during containment-server outages --------------

SoakOptions outage_options() {
  SoakOptions opts;
  opts.duration = util::minutes(12);
  // The CS link flaps hard: dead for 80s out of every 180s.
  opts.cs_link.flap_period = util::seconds(180);
  opts.cs_link.flap_down = util::seconds(80);
  return opts;
}

TEST(Soak, CsOutageFailsClosedToDrop) {
  auto opts = outage_options();
  opts.containment_extra =
      "[FailClosed]\nVerdict = DROP\nDeadlineMs = 10000\n";
  const auto result = run_soak(opts);
  EXPECT_TRUE(result.escapes.empty()) << join_escapes(result);
  // Flows opened during the outage windows hit the verdict deadline and
  // were forcibly resolved by the gateway, not left dangling.
  EXPECT_GT(result.verdict_timeouts, 0u);
  EXPECT_GT(result.fail_closed, 0u);
  EXPECT_NE(result.event_log.find("policy=FailClosed"), std::string::npos);
  EXPECT_EQ(result.fail_closed_reflects, 0u);
}

TEST(Soak, CsOutageFailsClosedToReflectWhenConfigured) {
  auto opts = outage_options();
  opts.containment_extra =
      "[FailClosed]\nVerdict = REFLECT\nDeadlineMs = 10000\n"
      "ReflectService = sink\n";
  const auto result = run_soak(opts);
  EXPECT_TRUE(result.escapes.empty()) << join_escapes(result);
  EXPECT_GT(result.fail_closed, 0u);
  EXPECT_GT(result.fail_closed_reflects, 0u);
}

TEST(Soak, ReflectFailClosedRequiresResolvableSink) {
  core::Farm farm;
  auto& sub = farm.add_subfarm("Bad");
  EXPECT_THROW(sub.configure_containment(
                   "[FailClosed]\nVerdict = REFLECT\n"
                   "ReflectService = nonexistent\n"),
               std::runtime_error);
}

// --- Overload shedding is distinguishable from loss -----------------------

TEST(Soak, OverloadedCsShedsInsteadOfStalling) {
  SoakOptions opts;
  opts.duration = util::minutes(8);
  opts.burst = true;  // 12 flows in 600ms against a 3s-per-decision CS.
  opts.containment_extra =
      "[Overload]\nQueueDepth = 2\nMode = refuse\nDecisionDelayMs = 3000\n";
  const auto result = run_soak(opts);
  EXPECT_TRUE(result.escapes.empty()) << join_escapes(result);
  EXPECT_GT(result.shed_refused, 0u);
  // Shed flows carry an explicit OverloadShed decision — an operator can
  // tell refusal apart from packet loss in the event stream.
  EXPECT_NE(result.event_log.find("OverloadShed"), std::string::npos);
}

// --- Determinism regression ----------------------------------------------

TEST(Soak, IdenticalSeedsReplayBitIdentically) {
  SoakOptions opts;
  opts.duration = util::minutes(8);
  opts.inmate_link.drop_probability = 0.08;
  opts.upstream_link.drop_probability = 0.20;
  opts.upstream_link.duplicate_probability = 0.05;
  opts.upstream_link.reorder_probability = 0.15;
  opts.upstream_link.reorder_window = util::milliseconds(15);
  opts.cs_link.drop_probability = 0.10;
  opts.cs_link.flap_period = util::seconds(150);
  opts.cs_link.flap_down = util::seconds(40);
  opts.containment_extra = "[FailClosed]\nDeadlineMs = 10000\n";

  opts.seed = 0xA11CE;
  const auto a1 = run_soak(opts);
  const auto a2 = run_soak(opts);
  EXPECT_EQ(a1.event_log, a2.event_log);
  EXPECT_EQ(a1.upstream_log, a2.upstream_log);
  EXPECT_EQ(a1.fault_dropped, a2.fault_dropped);
  EXPECT_TRUE(a1.escapes.empty()) << join_escapes(a1);

  // A second seed both replays identically against itself and — because
  // every link draws from an independent stream derived from the farm
  // seed — produces a genuinely different fault pattern, which would not
  // hold if links accidentally shared an Rng.
  opts.seed = 0xB0B0;
  const auto b1 = run_soak(opts);
  const auto b2 = run_soak(opts);
  EXPECT_EQ(b1.event_log, b2.event_log);
  EXPECT_EQ(b1.upstream_log, b2.upstream_log);
  EXPECT_TRUE(b1.escapes.empty()) << join_escapes(b1);
  EXPECT_NE(a1.event_log, b1.event_log);
}

// --- The verdict cache under soak conditions ------------------------------

TEST(Soak, VerdictCachingKeepsContainment) {
  // Same clean-fabric soak, but the policy opts every non-REWRITE
  // verdict into the gateway cache: waves land 15s apart against a 60s
  // default TTL, so after the first wave most verdicts are served
  // gateway-side. The escape oracle must still find nothing — a cached
  // FORWARD authorizes exactly what the original shim verdict did.
  SoakOptions opts;
  opts.duration = util::minutes(12);
  opts.cacheable = true;
  const auto result = run_soak(opts);
  EXPECT_TRUE(result.escapes.empty()) << join_escapes(result);
  EXPECT_GT(result.upstream_ip_frames, 0u);
  EXPECT_GT(result.cache_inserts, 0u);
  EXPECT_GT(result.cache_hits, 0u);
  // Cached verdicts still publish FlowVerdict events, labelled by
  // source, and all six verdicts still flow (REWRITE via the CS).
  const std::string cached_source =
      " src=" +
      std::to_string(static_cast<int>(shim::VerdictSource::kCached)) + " ";
  EXPECT_NE(result.event_log.find(cached_source), std::string::npos);
  auto totals = result.verdict_totals;
  EXPECT_GE(totals[shim::Verdict::kForward], 1u);
  EXPECT_GE(totals[shim::Verdict::kRewrite], 1u);
}

TEST(Soak, VerdictCachingReplaysBitIdentically) {
  // The cache must not perturb determinism: with faults, outages and
  // caching all enabled, identical seeds still produce byte-identical
  // event and upstream logs (which embed each verdict's source, so a
  // hit/miss divergence cannot hide).
  SoakOptions opts;
  opts.duration = util::minutes(8);
  opts.cacheable = true;
  opts.inmate_link.drop_probability = 0.08;
  opts.upstream_link.drop_probability = 0.20;
  opts.upstream_link.reorder_probability = 0.15;
  opts.upstream_link.reorder_window = util::milliseconds(15);
  opts.cs_link.drop_probability = 0.10;
  opts.cs_link.flap_period = util::seconds(150);
  opts.cs_link.flap_down = util::seconds(40);
  opts.containment_extra = "[FailClosed]\nDeadlineMs = 10000\n";

  opts.seed = 0xCAC4E;
  const auto a1 = run_soak(opts);
  const auto a2 = run_soak(opts);
  EXPECT_EQ(a1.event_log, a2.event_log);
  EXPECT_EQ(a1.upstream_log, a2.upstream_log);
  EXPECT_TRUE(a1.escapes.empty()) << join_escapes(a1);
  EXPECT_GT(a1.cache_hits, 0u);

  // And caching changes the decision path, not the contained traffic:
  // the same seed without the cache also stays escape-free.
  opts.cacheable = false;
  const auto off = run_soak(opts);
  EXPECT_TRUE(off.escapes.empty()) << join_escapes(off);
  EXPECT_EQ(off.cache_hits, 0u);
}

}  // namespace
}  // namespace gq

// Fault-injection soak sweep: drives a full farm through all six
// verdicts for half a simulated hour per row while the fabric degrades —
// escalating drop rates, reordering, duplication, jitter, and a
// containment-server outage schedule — and audits every frame the
// gateway emitted upstream against the verdict event stream. The table
// reports per-profile flow/verdict/retry/fail-closed tallies and the
// escape count, which must be zero on every row: the process exits
// nonzero otherwise, so CI can gate on containment under faults.
//
//   build/bench/s2_fault_soak           # full sweep, ~2.5 simulated hours
//   build/bench/s2_fault_soak --smoke   # 3 simulated minutes per row
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "containment/policy.h"
#include "core/farm.h"
#include "flowdb/flowdb.h"
#include "flowdb/store.h"
#include "netsim/fault.h"
#include "packet/frame.h"
#include "packet/pcap.h"
#include "trace/tap.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using namespace gq;
using util::Ipv4Addr;

constexpr std::uint16_t kPorts[] = {8001, 8002, 8003, 8004, 8005, 8006};

class CyclingPolicy : public cs::Policy {
 public:
  explicit CyclingPolicy(util::Endpoint sink)
      : cs::Policy("Cycling"), sink_(sink) {}
  cs::Decision decide(const cs::FlowInfo& info) override {
    switch (info.dst().port) {
      case 8001: return cs::Decision::forward();
      case 8002: return cs::Decision::limit(4096);
      case 8003: return cs::Decision::drop("denied");
      case 8004: return cs::Decision::redirect(sink_, "redirected");
      case 8005: return cs::Decision::reflect(sink_, "reflected");
      case 8006: return cs::Decision::rewrite("proxied");
      default:   return cs::Decision::drop("unexpected");
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
    return std::vector<std::uint8_t>(payload.begin(), payload.end());
  }

 private:
  util::Endpoint sink_;
};

struct Profile {
  const char* name;
  double drop = 0.0;      // Upstream-link drop probability.
  double reorder = 0.0;
  double duplicate = 0.0;
  bool cs_outage = false; // Flap the CS management link 80s/180s.
};

struct RowStats {
  std::uint64_t verdicts = 0;
  std::uint64_t forwards = 0;
  std::uint64_t fail_closed = 0;
  std::uint64_t shim_retries = 0;
  std::uint64_t fault_dropped = 0;
  std::uint64_t upstream_frames = 0;
  std::uint64_t escapes = 0;
  // Trace-archiver audit under soak load: evictions must happen (the
  // budget is sized to force rotation), retained memory must stay under
  // the configured budget, and every retained segment must be a
  // structurally complete pcap (zero capture gaps within it).
  std::uint64_t trace_evicted_segments = 0;
  std::uint64_t trace_retained_bytes = 0;
  std::uint64_t trace_budget_violations = 0;
  std::uint64_t trace_capture_gaps = 0;
};

// Deliberately tight rotation budget so a soak-scale run must rotate —
// scaled down further for --smoke (3 simulated minutes carries far less
// traffic than the full half hour).
constexpr std::size_t kTraceMaxSegments = 4;
std::size_t trace_segment_bytes(bool smoke) {
  return smoke ? 2 * 1024 : 32 * 1024;
}

// Audit one tap against the configured budget; folds into `stats`.
void audit_tap(const trace::TraceTap& tap, std::size_t segment_bytes,
               RowStats& stats) {
  const auto& archive = tap.archive();
  stats.trace_evicted_segments += archive.evicted_segments();
  stats.trace_retained_bytes += archive.retained_bytes();
  // Bound: max_segments full segments, each overshooting by at most one
  // frame (simulated frames are well under 4 KiB).
  const std::size_t budget = kTraceMaxSegments * (segment_bytes + 4096);
  if (archive.retained_bytes() > budget) ++stats.trace_budget_violations;
  // Zero gaps within retained segments: every record parses back.
  std::size_t parsed = 0;
  for (const auto& segment : archive.segments())
    parsed += pkt::parse_pcap(segment.pcap.contents()).size();
  if (parsed != archive.retained_packets()) ++stats.trace_capture_gaps;
}

RowStats run_row(const Profile& profile, util::Duration duration,
                 bool smoke, flowdb::Writer& flow_store) {
  core::FarmOptions options;
  options.seed = 0x5041B;
  options.trace_archive.segment_bytes = trace_segment_bytes(smoke);
  options.trace_archive.max_segments = kTraceMaxSegments;
  core::Farm farm(options);

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
  sub.add_catchall_sink();
  sub.configure_containment("[FailClosed]\nDeadlineMs = 10000\n");
  sub.bind_policy(sub.router().config().vlan_first,
                  sub.router().config().vlan_last,
                  std::make_shared<CyclingPolicy>(
                      sub.policy_env().services.at("sink")));

  // Escape oracle over the gateway's single upstream choke point.
  const auto external_net = sub.router().config().external_net;
  struct Emission {
    pkt::FlowProto proto;
    Ipv4Addr src, dst;
    std::uint16_t dport;
  };
  std::vector<Emission> upstream;
  farm.gateway().set_upstream_tap(
      [&](util::TimePoint, const std::vector<std::uint8_t>& bytes) {
        const auto decoded = pkt::decode_frame(bytes);
        if (!decoded || !decoded->ip) return;
        if (!decoded->is_tcp() && !decoded->is_udp()) return;
        if (!external_net.contains(decoded->ip->src)) return;
        upstream.push_back({decoded->is_tcp() ? pkt::FlowProto::kTcp
                                              : pkt::FlowProto::kUdp,
                            decoded->ip->src, decoded->ip->dst,
                            decoded->dst_port()});
      });
  std::vector<obs::FarmEvent> events;
  farm.telemetry().bus().subscribe(
      [&](const obs::FarmEvent& e) { events.push_back(e); });

  std::vector<inm::Inmate*> inmates;
  for (int i = 0; i < 3; ++i)
    inmates.push_back(&sub.create_inmate(inm::HostingKind::kVm));

  std::vector<sim::Port*> impaired;
  if (profile.drop > 0 || profile.reorder > 0 || profile.duplicate > 0) {
    sim::FaultProfile link;
    link.drop_probability = profile.drop;
    link.reorder_probability = profile.reorder;
    link.reorder_window = util::milliseconds(20);
    link.duplicate_probability = profile.duplicate;
    link.jitter_max = util::milliseconds(2);
    farm.set_link_faults(farm.gateway().upstream_port(), link);
    impaired.push_back(&farm.gateway().upstream_port());
    sim::FaultProfile mgmt;
    mgmt.drop_probability = profile.drop / 2;
    farm.set_link_faults(sub.containment_host().nic(), mgmt);
    impaired.push_back(&sub.containment_host().nic());
  }
  if (profile.cs_outage) {
    sim::FaultProfile flap;
    flap.flap_period = util::seconds(180);
    flap.flap_down = util::seconds(80);
    farm.set_link_faults(sub.containment_host().nic(), flap);
    if (impaired.empty() ||
        impaired.back() != &sub.containment_host().nic())
      impaired.push_back(&sub.containment_host().nic());
  }

  std::vector<std::shared_ptr<net::TcpConnection>> conns;
  std::vector<std::shared_ptr<net::UdpSocket>> udps;
  auto launch = [&](int index) {
    auto& host = inmates[index % inmates.size()]->host();
    if (!host.configured()) return;
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
  for (auto at = util::seconds(60); at.usec < duration.usec;
       at = at + util::seconds(10)) {
    farm.loop().schedule_at(util::TimePoint{at.usec},
                            [&launch, wave] { launch(wave); });
    ++wave;
  }

  farm.run_for(duration);

  // Audit: authorized (proto, global src, dst, dst port) tuples.
  std::map<std::uint16_t, std::set<Ipv4Addr>> globals_by_vlan;
  std::set<std::tuple<pkt::FlowProto, Ipv4Addr, Ipv4Addr, std::uint16_t>>
      authorized;
  RowStats stats;
  for (const auto& e : events) {
    if (e.kind == obs::FarmEvent::Kind::kDhcpBind)
      globals_by_vlan[e.vlan].insert(e.inmate_global);
    if (e.kind != obs::FarmEvent::Kind::kFlowVerdict) continue;
    ++stats.verdicts;
    if (e.verdict == shim::Verdict::kForward) ++stats.forwards;
    if (e.verdict != shim::Verdict::kForward &&
        e.verdict != shim::Verdict::kLimit &&
        e.verdict != shim::Verdict::kRewrite)
      continue;
    for (const auto& global : globals_by_vlan[e.vlan])
      authorized.insert({e.proto, global, e.orig_dst.addr, e.orig_dst.port});
  }
  for (const auto& em : upstream) {
    ++stats.upstream_frames;
    if (!authorized.count({em.proto, em.src, em.dst, em.dport})) {
      ++stats.escapes;
      std::fprintf(stderr, "ESCAPE: %s -> %s:%u (%s)\n",
                   em.src.str().c_str(), em.dst.str().c_str(), em.dport,
                   em.proto == pkt::FlowProto::kTcp ? "tcp" : "udp");
    }
  }
  const auto& metrics = farm.metrics();
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = metrics.find_counter(name);
    return c ? c->value() : 0;
  };
  stats.fail_closed = counter("gw.Soak.fail_closed");
  stats.shim_retries = counter("gw.Soak.shim_retries");
  const std::size_t segment_bytes = trace_segment_bytes(smoke);
  audit_tap(farm.gateway().upstream_trace(), segment_bytes, stats);
  audit_tap(farm.gateway().inmate_rx_trace(), segment_bytes, stats);
  audit_tap(sub.router().trace(), segment_bytes, stats);
  // Compact every audited tap into the sweep-wide FlowDB store, tap
  // names prefixed with the fault profile so `gq_trace stat --by tap`
  // can split the sweep per row.
  const std::string prefix = std::string(profile.name) + "/";
  flow_store.add_index(farm.gateway().upstream_trace().index(),
                       prefix + farm.gateway().upstream_trace().name());
  flow_store.add_index(farm.gateway().inmate_rx_trace().index(),
                       prefix + farm.gateway().inmate_rx_trace().name());
  flow_store.add_index(sub.router().trace().index(),
                       prefix + sub.router().trace().name());
  // Cross-check eviction accounting against the registry metric.
  if (counter("trace.Soak.evicted") !=
      sub.router().trace().archive().evicted_segments())
    ++stats.trace_capture_gaps;
  for (const auto* port : impaired) {
    stats.fault_dropped += port->fault_counters().dropped +
                           port->fault_counters().flap_dropped;
    if (port->peer())
      stats.fault_dropped += port->peer()->fault_counters().dropped +
                             port->peer()->fault_counters().flap_dropped;
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  const auto duration = smoke ? util::minutes(3) : util::minutes(30);

  const Profile profiles[] = {
      {"clean", 0.0, 0.0, 0.0, false},
      {"drop10", 0.10, 0.0, 0.0, false},
      {"drop20+reorder", 0.20, 0.20, 0.0, false},
      {"drop30+reorder+dup", 0.30, 0.30, 0.10, false},
      {"drop10+cs-outage", 0.10, 0.0, 0.0, true},
  };

  std::printf("S2. Containment under network faults (%s sweep, %s/row)\n",
              smoke ? "smoke" : "full",
              util::format_duration(duration).c_str());
  std::printf("%-20s %9s %9s %11s %9s %10s %10s %8s %9s\n", "profile",
              "verdicts", "forwards", "fail_closed", "retries", "faultdrops",
              "upstream", "escapes", "trc-evict");
  util::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("s2_fault_soak");
  json.key("smoke");
  json.value(smoke);
  json.key("sim_minutes_per_row");
  json.value(duration.usec / 60e6);
  json.key("trace_segment_bytes");
  json.value(static_cast<std::uint64_t>(trace_segment_bytes(smoke)));
  json.key("trace_max_segments");
  json.value(static_cast<std::uint64_t>(kTraceMaxSegments));
  json.key("rows");
  json.begin_array();
  std::uint64_t total_escapes = 0;
  std::uint64_t total_trace_violations = 0;
  std::uint64_t total_trace_evictions = 0;
  flowdb::Writer flow_store;
  for (const auto& profile : profiles) {
    const auto stats = run_row(profile, duration, smoke, flow_store);
    total_escapes += stats.escapes;
    total_trace_violations +=
        stats.trace_budget_violations + stats.trace_capture_gaps;
    total_trace_evictions += stats.trace_evicted_segments;
    std::printf("%-20s %9llu %9llu %11llu %9llu %10llu %10llu %8llu %9llu\n",
                profile.name,
                static_cast<unsigned long long>(stats.verdicts),
                static_cast<unsigned long long>(stats.forwards),
                static_cast<unsigned long long>(stats.fail_closed),
                static_cast<unsigned long long>(stats.shim_retries),
                static_cast<unsigned long long>(stats.fault_dropped),
                static_cast<unsigned long long>(stats.upstream_frames),
                static_cast<unsigned long long>(stats.escapes),
                static_cast<unsigned long long>(
                    stats.trace_evicted_segments));
    json.begin_object();
    json.key("profile");
    json.value(profile.name);
    json.key("verdicts");
    json.value(stats.verdicts);
    json.key("forwards");
    json.value(stats.forwards);
    json.key("fail_closed");
    json.value(stats.fail_closed);
    json.key("shim_retries");
    json.value(stats.shim_retries);
    json.key("fault_dropped");
    json.value(stats.fault_dropped);
    json.key("upstream_frames");
    json.value(stats.upstream_frames);
    json.key("escapes");
    json.value(stats.escapes);
    json.key("trace_evicted_segments");
    json.value(stats.trace_evicted_segments);
    json.key("trace_retained_bytes");
    json.value(stats.trace_retained_bytes);
    json.key("trace_budget_violations");
    json.value(stats.trace_budget_violations);
    json.key("trace_capture_gaps");
    json.value(stats.trace_capture_gaps);
    json.end_object();
  }
  json.end_array();

  // Seal the sweep's flow records into a fresh one-segment store dir; a
  // full scan must read every row back (each segment it maps is fully
  // validated) before the numbers are trusted.
  const std::string store_path = "BENCH_s2_flows";
  std::error_code store_ec;
  std::filesystem::remove_all(store_path, store_ec);
  auto segmented = flowdb::SegmentedStore::open(store_path);
  if (!segmented || !segmented->append_segment(flow_store)) {
    std::fprintf(stderr, "s2: cannot write %s\n", store_path.c_str());
    return 1;
  }
  auto store = flowdb::SegmentedReader::open(store_path);
  const auto all_rows =
      store ? store->scan({}) : std::optional<std::vector<std::uint64_t>>();
  if (!all_rows || all_rows->size() != flow_store.row_count()) {
    std::fprintf(stderr, "s2: %s failed reopen validation\n",
                 store_path.c_str());
    return 1;
  }
  json.key("flowdb_path");
  json.value(store_path);
  json.key("flowdb_rows");
  json.value(static_cast<std::uint64_t>(store->rows()));
  json.key("flowdb_bytes");
  json.value(static_cast<std::uint64_t>(store->manifest().total_bytes()));
  json.end_object();

  if (!util::json_valid(json.str())) {
    std::fprintf(stderr, "s2: generated BENCH_s2.json is not valid JSON\n");
    return 1;
  }
  {
    std::ofstream out("BENCH_s2.json", std::ios::binary | std::ios::trunc);
    out << json.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "s2: cannot write BENCH_s2.json\n");
      return 1;
    }
  }
  std::ifstream back("BENCH_s2.json", std::ios::binary);
  const std::string reread((std::istreambuf_iterator<char>(back)),
                           std::istreambuf_iterator<char>());
  if (!util::json_valid(reread)) {
    std::fprintf(stderr, "s2: BENCH_s2.json failed round-trip validation\n");
    return 1;
  }
  std::printf("\nwrote BENCH_s2.json (validated)\n");

  if (total_escapes > 0) {
    std::fprintf(stderr,
                 "\nCONTAINMENT FAILURE: %llu frame(s) escaped upstream "
                 "without an authorizing verdict\n",
                 static_cast<unsigned long long>(total_escapes));
    return 1;
  }
  if (total_trace_violations > 0) {
    std::fprintf(stderr,
                 "\nTRACE AUDIT FAILURE: %llu budget/gap violation(s) in "
                 "the rotating archivers\n",
                 static_cast<unsigned long long>(total_trace_violations));
    return 1;
  }
  if (total_trace_evictions == 0) {
    std::fprintf(stderr, "\nTRACE AUDIT FAILURE: rotation never evicted a "
                         "segment despite the tight budget\n");
    return 1;
  }
  std::printf("zero containment escapes across all profiles; trace "
              "archivers stayed within budget (%llu segments rotated); "
              "%llu flows sealed into store %s\n",
              static_cast<unsigned long long>(total_trace_evictions),
              static_cast<unsigned long long>(flow_store.row_count()),
              store_path.c_str());
  return 0;
}

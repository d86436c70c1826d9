// Reproduces §7.2 "System scalability": the constraints the paper walks
// through —
//   (1) VLAN IDs are a finite resource (4,096 under 802.1Q);
//   (2) a single containment server must interpose on every flow in its
//       subfarm and becomes the bottleneck as the population grows;
//   (3) the central gateway carries everything but scales comfortably to
//       the paper's operating point (5-6 subfarms, a handful to a dozen
//       inmates each);
//   (4) global address space bounds the inmate population.
//
// The bench sweeps inmate population per subfarm and subfarm count,
// reporting contained-flow throughput and per-component load.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "containment/policy.h"
#include "core/farm.h"
#include "core/sharded_farm.h"
#include "extnet/extnet.h"
#include "malware/spambot.h"
#include "packet/frame.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using namespace gq;
using util::Ipv4Addr;

struct RunStats {
  std::uint64_t flows_contained = 0;
  std::uint64_t spam_harvested = 0;
  std::uint64_t cs_decisions_max = 0;  // Busiest containment server.
  double wall_ms = 0;
  std::uint64_t sim_events = 0;
};

RunStats run(int subfarms, int inmates_per_subfarm, util::Duration duration) {
  core::Farm farm;
  auto& cc_host = farm.add_external_host("cc", Ipv4Addr(50, 8, 207, 91));
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());

  std::vector<core::Subfarm*> subs;
  for (int s = 0; s < subfarms; ++s) {
    auto& sub = farm.add_subfarm(util::format("Farm%d", s));
    sub.add_catchall_sink();
    sinks::SmtpSinkConfig sink_config;
    sink_config.port = 2526;
    sub.add_smtp_sink(sink_config, "bannersmtpsink");
    sub.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});
    sub.containment().samples().add("grum.000.exe");
    sub.catalog().register_prototype(
        "grum.*", [](const std::string&, util::Rng& rng) {
          mal::SpambotConfig config;
          config.family = "grum";
          config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
          config.send_interval = util::seconds(2);
          return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
        });
    sub.configure_containment(util::format(
        "[VLAN %d-%d]\nDecider = Grum\nInfection = grum.*\n",
        sub.router().config().vlan_first,
        sub.router().config().vlan_last));
    for (int i = 0; i < inmates_per_subfarm; ++i)
      sub.create_inmate(inm::HostingKind::kVm);
    subs.push_back(&sub);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const auto events_before = farm.loop().events_executed();
  farm.run_for(duration);
  const auto wall_end = std::chrono::steady_clock::now();

  RunStats stats;
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  stats.sim_events = farm.loop().events_executed() - events_before;
  for (auto* sub : subs) {
    stats.flows_contained += sub->router().flows_created();
    stats.cs_decisions_max =
        std::max(stats.cs_decisions_max, sub->containment().flows_decided());
    if (auto* sink = sub->smtp_sink("bannersmtpsink"))
      stats.spam_harvested += sink->data_transfers();
  }
  return stats;
}

// --- Sweep D: the gateway verdict cache takes the CS off the per-flow
// hot path. A scan-class workload (one inmate probing a fixed set of
// web servers, port 80) against a policy whose FORWARD verdict is
// cacheable at dst-port scope: one cache entry covers the whole scan,
// so with the cache on only the first flow pays the shim round trip.

class ScanForwardPolicy : public cs::Policy {
 public:
  ScanForwardPolicy() : cs::Policy("ScanForward") {}

  cs::Decision decide(const cs::FlowInfo& info) override {
    // The verdict depends only on the destination port, so dst-port
    // scope is exact; the TTL outlives the whole measured run.
    if (info.dst().port == 80)
      return cs::Decision::forward().cached(shim::CacheScope::kDstPort,
                                            3'600'000);
    return cs::Decision::drop("off-scan").cached(shim::CacheScope::kDstPort,
                                                 3'600'000);
  }
};

struct CacheStats {
  std::uint64_t setups = 0;  // TCP connects completed inside `duration`.
  std::uint64_t cs_decisions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_inserts = 0;
  double wall_ms = 0;
};

CacheStats run_cache(bool cache_on, util::Duration duration) {
  core::FarmOptions options;
  options.datapath.verdict_cache = cache_on;
  core::Farm farm(options);
  // Eight scan targets, all accepting on port 80.
  std::vector<Ipv4Addr> targets;
  for (int i = 0; i < 8; ++i) {
    const Ipv4Addr addr(93, 184, 216, static_cast<std::uint8_t>(34 + i));
    auto& host = farm.add_external_host(util::format("web%d", i), addr);
    host.listen(80, [](std::shared_ptr<net::TcpConnection>) {});
    targets.push_back(addr);
  }

  auto& sub = farm.add_subfarm("Scan");
  // Each CS decision costs 1 simulated second (policy work, sample
  // lookups, logging — the paper's reason the CS is the §7.2
  // bottleneck): with the cache off, every flow setup pays it.
  sub.configure_containment("[Overload]\nDecisionDelayMs = 1000\n");
  sub.bind_policy(sub.router().config().vlan_first,
                  sub.router().config().vlan_last,
                  std::make_shared<ScanForwardPolicy>());
  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(2));  // VM boot + DHCP.

  // Serial scan driven by the verdict event stream: the next probe
  // launches 40ms after the previous flow's verdict is applied, so the
  // measured cycle is exactly what the cache changes — SYN-to-verdict
  // latency. 40ms pacing keeps the offered rate under the safety-filter
  // caps (2000/inmate/min; 500/dest/min across the eight targets).
  // A "setup" is a flow whose verdict the gateway resolved; the flows
  // stay open (no payload) so a queued CS decision always finds its
  // flow alive.
  CacheStats stats;
  std::vector<std::shared_ptr<net::TcpConnection>> conns;
  std::size_t next_target = 0;
  bool advance_pending = false;
  std::function<void()> launch;
  auto advance = [&] {
    if (advance_pending) return;  // One probe in flight at a time.
    advance_pending = true;
    farm.loop().schedule_in(util::milliseconds(40), [&] {
      advance_pending = false;
      launch();
    });
  };
  farm.telemetry().bus().subscribe([&](const obs::FarmEvent& e) {
    if (e.kind != obs::FarmEvent::Kind::kFlowVerdict) return;
    ++stats.setups;
    advance();
  });
  launch = [&] {
    auto conn = inmate.host().connect(
        {targets[next_target++ % targets.size()], 80});
    conn->on_reset = [&] { advance(); };  // Rejected probe: keep scanning.
    conns.push_back(std::move(conn));
  };
  const auto wall_start = std::chrono::steady_clock::now();
  launch();
  farm.run_for(duration);
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  stats.cs_decisions = sub.containment().flows_decided();
  stats.cache_hits = sub.router().cache_hits();
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto* c = farm.metrics().find_counter(std::string("gw.Scan.") + name);
    return c ? c->value() : 0;
  };
  stats.cache_misses = counter("cache_miss");
  stats.cache_inserts = counter("cache_insert");
  return stats;
}

// --- Sweep E: the compiled policy table takes the CS off the
// *first-contact* hot path — the one case the verdict cache can never
// help with. A sweep-class workload (one inmate probing a fresh
// destination every cycle, port 80) against a fully compilable policy:
// with the table off every probe is a first contact paying the full
// shim round trip; with it on the gateway answers from the compiled
// table and the containment server sees nothing at all.

class FirstContactPolicy : public cs::Policy {
 public:
  FirstContactPolicy() : cs::Policy("FirstContact") {}

  cs::Decision decide(const cs::FlowInfo& info) override {
    if (info.dst().port == 80) return cs::Decision::forward("scan allowed");
    return cs::Decision::drop("off-scan");
  }

  std::optional<std::vector<shim::TableRule>> compile() const override {
    shim::TableRule web;
    web.port_first = web.port_last = 80;
    web.action = shim::TableAction::kForward;
    web.annotation = "scan allowed";
    shim::TableRule rest;
    rest.action = shim::TableAction::kDrop;
    rest.annotation = "off-scan";
    return std::vector<shim::TableRule>{web, rest};
  }
};

struct TableStats {
  std::uint64_t setups = 0;  // First-contact verdicts inside `duration`.
  std::uint64_t cs_decisions = 0;
  std::uint64_t table_hits = 0;
  double wall_ms = 0;
};

TableStats run_table(bool table_on, util::Duration duration) {
  core::FarmOptions options;
  options.datapath.policy_table = table_on;
  core::Farm farm(options);

  auto& sub = farm.add_subfarm("Sweep");
  // Same 1s-per-decision CS cost as sweep D; the verdict cache stays at
  // its default (on) in both runs to show it cannot mask first contacts.
  sub.configure_containment("[Overload]\nDecisionDelayMs = 1000\n");
  sub.bind_policy(sub.router().config().vlan_first,
                  sub.router().config().vlan_last,
                  std::make_shared<FirstContactPolicy>());
  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(2));  // VM boot + DHCP.

  // Serial sweep, one probe in flight, 40ms pacing (same driver as
  // sweep D) — but every probe goes to a destination never seen before,
  // so by construction each verdict is a first contact.
  TableStats stats;
  std::vector<std::shared_ptr<net::TcpConnection>> conns;
  std::uint32_t next_dst = 0;
  bool advance_pending = false;
  std::function<void()> launch;
  auto advance = [&] {
    if (advance_pending) return;
    advance_pending = true;
    farm.loop().schedule_in(util::milliseconds(40), [&] {
      advance_pending = false;
      launch();
    });
  };
  farm.telemetry().bus().subscribe([&](const obs::FarmEvent& e) {
    if (e.kind != obs::FarmEvent::Kind::kFlowVerdict) return;
    ++stats.setups;
    advance();
  });
  launch = [&] {
    const Ipv4Addr dst(93, static_cast<std::uint8_t>(10 + (next_dst >> 16)),
                       static_cast<std::uint8_t>(next_dst >> 8),
                       static_cast<std::uint8_t>(next_dst));
    ++next_dst;
    auto conn = inmate.host().connect({dst, 80});
    conn->on_reset = [&] { advance(); };
    conns.push_back(std::move(conn));
  };
  const auto wall_start = std::chrono::steady_clock::now();
  launch();
  farm.run_for(duration);
  stats.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
  stats.cs_decisions = sub.containment().flows_decided();
  stats.table_hits = sub.router().table_hits();
  return stats;
}

// --- Sweep F: sharded execution. One complete farm replica per shard
// (own event loop, gateway, CS, sinks), external switches L2-bridged in
// a chain, advanced in deterministic lockstep epochs (DESIGN.md §12).
// Same Grum workload as sweep A, with the C&C homed on shard 0 so every
// other shard's polls cross the bridges. Gates: zero escapes (TCP
// port-25 frames at any shard's upstream choke point) and nonzero
// cross-shard traffic; ctest scalability_stream_hash pins the merged
// stream hash. The run also records the parallel ceiling: threads could
// only overlap shards that have events due in the same epoch, so the
// schedule caps any speedup at loop events divided by critical-path
// events (per epoch, the busiest shard's count).

struct ShardStats {
  std::uint64_t events = 0;
  std::uint64_t cc_requests = 0;
  std::uint64_t cross_shard_messages = 0;
  std::uint64_t epochs = 0;  // Barriers crossed.
  std::uint64_t epochs_skipped = 0;
  std::uint64_t loop_events = 0;
  std::uint64_t critical_path_events = 0;
  std::uint64_t escapes = 0;
  std::uint64_t stream_hash = 0;  // FNV-1a over merged event lines.
  double wall_ms = 0;
};

ShardStats run_sharded(std::size_t shards, int inmates_per_shard,
                       util::Duration duration) {
  core::ShardedFarmOptions options;
  options.shards = shards;
  options.seed = 0x5EEDF;
  core::ShardedFarm farm(
      options, [inmates_per_shard](core::Farm& shard_farm, std::size_t s) {
        auto& sub = shard_farm.add_subfarm(util::format("Shard%zu", s));
        sub.add_catchall_sink();
        sinks::SmtpSinkConfig sink_config;
        sink_config.port = 2526;
        sub.add_smtp_sink(sink_config, "bannersmtpsink");
        sub.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});
        sub.containment().samples().add("grum.000.exe");
        sub.catalog().register_prototype(
            "grum.*", [](const std::string&, util::Rng& rng) {
              mal::SpambotConfig config;
              config.family = "grum";
              config.c2 = {Ipv4Addr(50, 8, 207, 91), 80};
              config.send_interval = util::seconds(2);
              return std::make_unique<mal::SpambotBehavior>(config,
                                                            rng.fork());
            });
        sub.configure_containment(util::format(
            "[VLAN %d-%d]\nDecider = Grum\nInfection = grum.*\n",
            sub.router().config().vlan_first,
            sub.router().config().vlan_last));
        for (int i = 0; i < inmates_per_shard; ++i)
          sub.create_inmate(inm::HostingKind::kVm);
      });

  // Escape oracle at every shard's upstream choke point: Grum's policy
  // REFLECTs all port-25 traffic into the shard-local banner sink, so
  // any TCP port-25 frame here means spam reached the (simulated)
  // Internet. One counter slot per shard, read after run_for.
  std::vector<std::uint64_t> escapes_per_shard(farm.shard_count(), 0);
  for (std::size_t s = 0; s < farm.shard_count(); ++s) {
    std::uint64_t* slot = &escapes_per_shard[s];
    farm.shard(s).gateway().set_upstream_tap(
        [slot](util::TimePoint, const std::vector<std::uint8_t>& bytes) {
          const auto decoded = pkt::decode_frame(bytes);
          if (!decoded || !decoded->ip || !decoded->is_tcp()) return;
          if (decoded->dst_port() == 25) ++*slot;
        });
  }

  // The C&C anchor lives on shard 0, declared after the farm so its
  // HttpServer dies before the host stack it references.
  auto& cc_host = farm.shard(0).add_external_host("cc", Ipv4Addr(50, 8, 207, 91));
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());

  const auto wall_start = std::chrono::steady_clock::now();
  farm.run_for(duration);
  const auto wall_end = std::chrono::steady_clock::now();

  ShardStats stats;
  stats.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  stats.events = farm.event_count();
  stats.cc_requests = cc.requests();
  const sim::LockstepStats ls = farm.lockstep_stats();
  stats.cross_shard_messages = ls.messages;
  stats.epochs = ls.epochs;
  stats.epochs_skipped = ls.epochs_skipped;
  stats.loop_events = ls.events;
  stats.critical_path_events = ls.critical_path_events;
  for (std::uint64_t n : escapes_per_shard) stats.escapes += n;
  std::uint64_t hash = 1469598103934665603ull;
  for (const std::string& line : farm.merged_event_lines()) {
    for (char c : line) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    hash ^= static_cast<unsigned char>('\n');
    hash *= 1099511628211ull;
  }
  stats.stream_hash = hash;
  return stats;
}

// One JSON row shared by sweeps A and B.
void json_row(util::JsonWriter& json, const char* sweep, int subfarms,
              int inmates, const RunStats& stats) {
  json.begin_object();
  json.key("sweep");
  json.value(sweep);
  json.key("subfarms");
  json.value(subfarms);
  json.key("inmates_per_subfarm");
  json.value(inmates);
  json.key("flows_contained");
  json.value(stats.flows_contained);
  json.key("spam_harvested");
  json.value(stats.spam_harvested);
  json.key("cs_decisions_max");
  json.value(stats.cs_decisions_max);
  json.key("sim_events");
  json.value(stats.sim_events);
  json.key("wall_ms");
  json.value(stats.wall_ms);
  json.end_object();
}

// Write + validate the machine-readable summary; nonzero on failure so
// the smoke target gates on it.
int write_summary(const util::JsonWriter& json, const char* path) {
  if (!util::json_valid(json.str())) {
    std::fprintf(stderr, "s1: generated %s is not valid JSON\n", path);
    return 1;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json.str() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "s1: cannot write %s\n", path);
    return 1;
  }
  std::ifstream back(path, std::ios::binary);
  std::string reread((std::istreambuf_iterator<char>(back)),
                     std::istreambuf_iterator<char>());
  if (!util::json_valid(reread)) {
    std::fprintf(stderr, "s1: %s failed round-trip validation\n", path);
    return 1;
  }
  std::printf("\nwrote %s (validated)\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  const auto duration = smoke ? util::minutes(2) : util::minutes(10);
  const double minutes = duration.usec / 60e6;
  std::printf(
      "S1 reproduction (§7.2 scalability): spambot deployment sweeps,\n"
      "%.0f simulated minutes per configuration\n\n", minutes);

  util::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("s1_scalability");
  json.key("smoke");
  json.value(smoke);
  json.key("sim_minutes_per_row");
  json.value(minutes);
  json.key("rows");
  json.begin_array();

  std::printf("Sweep A: one subfarm, growing population (single CS "
              "interposes on all flows)\n");
  std::printf("%9s %10s %12s %14s %12s %10s\n", "INMATES", "FLOWS",
              "FLOWS/MIN", "CS DECISIONS", "SIM EVENTS", "WALL(ms)");
  std::printf("%s\n", std::string(74, '-').c_str());
  const std::vector<int> sweep_a =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 12};
  for (int inmates : sweep_a) {
    const RunStats stats = run(1, inmates, duration);
    std::printf("%9d %10llu %12.0f %14llu %12llu %10.0f\n", inmates,
                static_cast<unsigned long long>(stats.flows_contained),
                stats.flows_contained / minutes,
                static_cast<unsigned long long>(stats.cs_decisions_max),
                static_cast<unsigned long long>(stats.sim_events),
                stats.wall_ms);
    json_row(json, "population", 1, inmates, stats);
  }

  std::printf(
      "\nSweep B: 12 inmates total, spread across subfarms (per-subfarm\n"
      "containment servers distribute the decision load, §7.2's remedy)\n");
  std::printf("%9s %10s %12s %20s %10s\n", "SUBFARMS", "FLOWS",
              "FLOWS/MIN", "BUSIEST CS (dec.)", "WALL(ms)");
  std::printf("%s\n", std::string(68, '-').c_str());
  const std::vector<int> sweep_b =
      smoke ? std::vector<int>{2} : std::vector<int>{1, 2, 3, 4, 6};
  for (int subfarms : sweep_b) {
    const RunStats stats = run(subfarms, 12 / subfarms, duration);
    std::printf("%9d %10llu %12.0f %20llu %10.0f\n", subfarms,
                static_cast<unsigned long long>(stats.flows_contained),
                stats.flows_contained / minutes,
                static_cast<unsigned long long>(stats.cs_decisions_max),
                stats.wall_ms);
    json_row(json, "subfarm_spread", subfarms, 12 / subfarms, stats);
  }

  std::printf(
      "\nSweep D: gateway verdict cache, scan-class workload (one inmate,\n"
      "8 targets, port 80, cacheable FORWARD at dst-port scope, 1s CS\n"
      "decision cost). Cache off: every setup pays the shim round trip.\n"
      "Cache on: only the first does.\n");
  std::printf("%9s %10s %12s %14s %12s %10s\n", "CACHE", "SETUPS",
              "SETUPS/MIN", "CS DECISIONS", "CACHE HITS", "WALL(ms)");
  std::printf("%s\n", std::string(74, '-').c_str());
  double setups_per_min[2] = {0, 0};
  for (const bool cache_on : {false, true}) {
    const CacheStats stats = run_cache(cache_on, duration);
    setups_per_min[cache_on ? 1 : 0] = stats.setups / minutes;
    std::printf("%9s %10llu %12.0f %14llu %12llu %10.0f\n",
                cache_on ? "on" : "off",
                static_cast<unsigned long long>(stats.setups),
                stats.setups / minutes,
                static_cast<unsigned long long>(stats.cs_decisions),
                static_cast<unsigned long long>(stats.cache_hits),
                stats.wall_ms);

    json.begin_object();
    json.key("sweep");
    json.value("verdict_cache");
    json.key("cache");
    json.value(cache_on ? "on" : "off");
    json.key("flow_setups");
    json.value(stats.setups);
    json.key("setups_per_min");
    json.value(stats.setups / minutes);
    json.key("cs_decisions");
    json.value(stats.cs_decisions);
    json.key("cache_hits");
    json.value(stats.cache_hits);
    json.key("cache_misses");
    json.value(stats.cache_misses);
    json.key("cache_inserts");
    json.value(stats.cache_inserts);
    json.key("wall_ms");
    json.value(stats.wall_ms);
    json.end_object();
  }
  const double cache_speedup =
      setups_per_min[0] > 0 ? setups_per_min[1] / setups_per_min[0] : 0;
  std::printf("\nCache-on flow-setup throughput: %.1fx cache-off\n",
              cache_speedup);

  std::printf(
      "\nSweep E: compiled policy table, first-contact workload (one\n"
      "inmate, a fresh destination every probe, port 80, fully compilable\n"
      "policy, 1s CS decision cost). The verdict cache never matches —\n"
      "every probe is a first contact. Table off: every setup is a shim\n"
      "round trip. Table on: the gateway answers from the compiled table.\n");
  std::printf("%9s %10s %12s %14s %12s %10s\n", "TABLE", "SETUPS",
              "SETUPS/MIN", "CS DECISIONS", "TABLE HITS", "WALL(ms)");
  std::printf("%s\n", std::string(74, '-').c_str());
  double table_setups_per_min[2] = {0, 0};
  std::uint64_t table_on_cs_decisions = 0;
  for (const bool table_on : {false, true}) {
    const TableStats stats = run_table(table_on, duration);
    table_setups_per_min[table_on ? 1 : 0] = stats.setups / minutes;
    if (table_on) table_on_cs_decisions = stats.cs_decisions;
    std::printf("%9s %10llu %12.0f %14llu %12llu %10.0f\n",
                table_on ? "on" : "off",
                static_cast<unsigned long long>(stats.setups),
                stats.setups / minutes,
                static_cast<unsigned long long>(stats.cs_decisions),
                static_cast<unsigned long long>(stats.table_hits),
                stats.wall_ms);

    json.begin_object();
    json.key("sweep");
    json.value("policy_table");
    json.key("table");
    json.value(table_on ? "on" : "off");
    json.key("flow_setups");
    json.value(stats.setups);
    json.key("setups_per_min");
    json.value(stats.setups / minutes);
    json.key("cs_decisions");
    json.value(stats.cs_decisions);
    json.key("table_hits");
    json.value(stats.table_hits);
    json.key("wall_ms");
    json.value(stats.wall_ms);
    json.end_object();
  }
  const double table_speedup =
      table_setups_per_min[0] > 0
          ? table_setups_per_min[1] / table_setups_per_min[0]
          : 0;
  std::printf("\nTable-on first-contact throughput: %.1fx table-off\n",
              table_speedup);

  std::printf(
      "\nStructural limits (§7.2):\n"
      "  VLAN ID space:            4096 (802.1Q twelve-bit field)\n"
      "  Inmates per /24 subfarm:  ~236 internal leases, ~244 globals\n"
      "  Paper's operating point:  5-6 subfarms, handful-to-dozen "
      "inmates\n\n"
      "Shape check: contained-flow throughput grows with population; the\n"
      "single CS's decision count grows linearly with farm size in sweep "
      "A\nand is flattened by per-subfarm containment servers in sweep "
      "B.\n");

  std::printf(
      "\nSweep F: sharded execution, 4 shards (one farm replica per\n"
      "shard, external switches chain-bridged, lockstep epochs = 10ms\n"
      "cross-shard latency).\n");
  std::printf("%10s %12s %12s %10s %10s\n", "EVENTS", "CC REQS",
              "X-SHARD MSG", "ESCAPES", "WALL(ms)");
  std::printf("%s\n", std::string(58, '-').c_str());
  const std::size_t f_shards = 4;
  const int f_inmates = smoke ? 2 : 6;
  const ShardStats f = run_sharded(f_shards, f_inmates, duration);
  std::printf("%10llu %12llu %12llu %10llu %10.0f\n",
              static_cast<unsigned long long>(f.events),
              static_cast<unsigned long long>(f.cc_requests),
              static_cast<unsigned long long>(f.cross_shard_messages),
              static_cast<unsigned long long>(f.escapes), f.wall_ms);
  const std::string f_hash = util::format(
      "%016llx", static_cast<unsigned long long>(f.stream_hash));
  json.begin_object();
  json.key("sweep");
  json.value("sharded");
  json.key("shards");
  json.value(static_cast<std::uint64_t>(f_shards));
  json.key("inmates_per_shard");
  json.value(f_inmates);
  json.key("events");
  json.value(f.events);
  json.key("cc_requests");
  json.value(f.cc_requests);
  json.key("cross_shard_messages");
  json.value(f.cross_shard_messages);
  json.key("lockstep_epochs");
  json.value(f.epochs);
  json.key("escapes");
  json.value(f.escapes);
  json.key("stream_hash");
  json.value(f_hash);
  json.key("wall_ms");
  json.value(f.wall_ms);
  json.end_object();
  // The speedup that one thread per shard could reach with a free
  // barrier.
  const double f_ceiling =
      f.critical_path_events > 0
          ? static_cast<double>(f.loop_events) /
                static_cast<double>(f.critical_path_events)
          : 1.0;
  std::printf("\nMerged event-stream hash: %s\n", f_hash.c_str());
  std::printf(
      "Lockstep: %llu barriers, %llu idle epochs skipped; %llu loop events,\n"
      "%llu on the per-epoch critical path: parallel ceiling %.2fx at 4 "
      "threads\n",
      static_cast<unsigned long long>(f.epochs),
      static_cast<unsigned long long>(f.epochs_skipped),
      static_cast<unsigned long long>(f.loop_events),
      static_cast<unsigned long long>(f.critical_path_events), f_ceiling);

  json.end_array();
  json.key("cache_speedup");
  json.value(cache_speedup);
  json.key("table_speedup");
  json.value(table_speedup);
  json.key("loop_events");
  json.value(f.loop_events);
  json.key("critical_path_events");
  json.value(f.critical_path_events);
  json.key("parallel_ceiling_4t");
  json.value(f_ceiling);
  json.key("epochs_skipped");
  json.value(f.epochs_skipped);
  json.end_object();

  if (write_summary(json, "BENCH_s1.json") != 0) return 1;

  // Self-validation: the verdict cache's reason to exist is taking the
  // CS off the hot path; anything under 10x means it did not.
  if (cache_speedup < 10.0) {
    std::fprintf(stderr,
                 "s1: cache-on flow-setup throughput only %.1fx cache-off "
                 "(expected >= 10x)\n",
                 cache_speedup);
    return 1;
  }
  // Same contract for the compiled table on the first-contact path, and
  // the whole point of compiling is that the CS sees nothing: under a
  // fully compilable policy every table-on decision must stay local.
  if (table_speedup < 5.0) {
    std::fprintf(stderr,
                 "s1: table-on first-contact throughput only %.1fx "
                 "table-off (expected >= 5x)\n",
                 table_speedup);
    return 1;
  }
  if (table_on_cs_decisions != 0) {
    std::fprintf(stderr,
                 "s1: containment server decided %llu flows with the table "
                 "on (expected 0 under a fully compiled policy)\n",
                 static_cast<unsigned long long>(table_on_cs_decisions));
    return 1;
  }
  // Sweep F contracts: sharded execution must never leak a frame, and
  // the run must actually cross shards.
  if (f.escapes != 0) {
    std::fprintf(stderr, "s1: %llu containment escapes in sharded runs\n",
                 static_cast<unsigned long long>(f.escapes));
    return 1;
  }
  if (f.cross_shard_messages == 0 || f.cc_requests == 0) {
    std::fprintf(stderr,
                 "s1: sharded sweep exercised no cross-shard traffic "
                 "(messages=%llu cc_requests=%llu) — the gates above are "
                 "vacuous\n",
                 static_cast<unsigned long long>(f.cross_shard_messages),
                 static_cast<unsigned long long>(f.cc_requests));
    return 1;
  }
  return 0;
}

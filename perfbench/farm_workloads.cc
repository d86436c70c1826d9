// Farm workloads: detonate, spam_farm and scan_setup.
//
// Each run is a sequence of identical rounds. A round builds a fresh
// farm from the seed (timed as set-up), runs its measured phase as a
// series of run_for steps over a fixed simulated slice (each step timed),
// then checks its outputs outside the measured time. Rounds repeat until
// the measured time reaches --seconds; because every round is built from
// the same seed, every round must report exactly the same work counts,
// which is the run's determinism check, and step i of every round is the
// same work, so its time is the fastest of its repetitions (Repeated).
//
// A traced run alternates untraced rounds with rounds that record spans;
// the difference of the two measured walls is the tracing overhead.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "containment/policy.h"
#include "core/farm.h"
#include "core/sharded_farm.h"
#include "extnet/extnet.h"
#include "flowdb/store.h"
#include "malware/spambot.h"
#include "orchestrator/service.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace gq;
using util::Ipv4Addr;

/// Largest number of connections one bench-owned behaviour held open.
std::atomic<std::uint64_t> g_connections_open_max{0};

void note_open_connections(std::size_t n) {
  std::uint64_t seen = g_connections_open_max.load(std::memory_order_relaxed);
  while (n > seen && !g_connections_open_max.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
}

/// Per-farm escape oracle over the gateway's upstream choke point, the
/// one s3 and s2 use: an inmate-sourced TCP/UDP frame seen upstream must
/// match an authorising verdict (FORWARD, LIMIT or REWRITE) for that
/// exact (proto, global src, dst, dport), with the DHCP-bind stream
/// supplying the vlan -> global address mapping. Callbacks run on the
/// farm's own loop thread; check() runs after run_for returns.
class EscapeOracle {
 public:
  void attach(core::Farm& farm) {
    farm.gateway().set_upstream_tap(
        [this](util::TimePoint, const std::vector<std::uint8_t>& bytes) {
          const auto decoded = pkt::decode_frame(bytes);
          if (!decoded || !decoded->ip) return;
          if (!decoded->is_tcp() && !decoded->is_udp()) return;
          upstream_.push_back({decoded->is_tcp() ? pkt::FlowProto::kTcp
                                                 : pkt::FlowProto::kUdp,
                               decoded->ip->src, decoded->ip->dst,
                               decoded->dst_port()});
        });
    farm.telemetry().bus().subscribe([this](const obs::FarmEvent& e) {
      if (e.kind == obs::FarmEvent::Kind::kDhcpBind ||
          e.kind == obs::FarmEvent::Kind::kFlowVerdict)
        events_.push_back(e);
    });
  }

  /// Escaped frames; the first one is described in `first`.
  std::uint64_t escapes(std::string* first) const {
    std::set<Ipv4Addr> globals;
    std::map<std::uint16_t, std::set<Ipv4Addr>> globals_by_vlan;
    std::set<std::tuple<pkt::FlowProto, Ipv4Addr, Ipv4Addr, std::uint16_t>>
        authorized;
    for (const auto& e : events_) {
      if (e.kind == obs::FarmEvent::Kind::kDhcpBind) {
        globals_by_vlan[e.vlan].insert(e.inmate_global);
        globals.insert(e.inmate_global);
        continue;
      }
      if (e.verdict != shim::Verdict::kForward &&
          e.verdict != shim::Verdict::kLimit &&
          e.verdict != shim::Verdict::kRewrite)
        continue;
      for (const auto& global : globals_by_vlan[e.vlan])
        authorized.insert({e.proto, global, e.orig_dst.addr, e.orig_dst.port});
    }
    std::uint64_t escaped = 0;
    for (const auto& em : upstream_) {
      if (!globals.count(em.src)) continue;  // Not inmate-sourced.
      if (authorized.count({em.proto, em.src, em.dst, em.dport})) continue;
      if (escaped++ == 0 && first)
        *first = util::format("%s -> %s:%u", em.src.str().c_str(),
                              em.dst.str().c_str(), em.dport);
    }
    return escaped;
  }

  [[nodiscard]] std::uint64_t verdicts() const {
    return static_cast<std::uint64_t>(std::count_if(
        events_.begin(), events_.end(), [](const obs::FarmEvent& e) {
          return e.kind == obs::FarmEvent::Kind::kFlowVerdict;
        }));
  }
  [[nodiscard]] std::uint64_t upstream_frames() const {
    return upstream_.size();
  }

 private:
  struct Emission {
    pkt::FlowProto proto;
    Ipv4Addr src, dst;
    std::uint16_t dport;
  };
  std::vector<Emission> upstream_;
  std::vector<obs::FarmEvent> events_;
};

/// Per-layer accumulators of a traced phase: sums and maxima over its
/// rounds, plus sample sets reported as percentiles.
struct LayerAcc {
  std::map<std::string, double> total;
  std::map<std::string, double> peak;
  std::map<std::string, Samples> dist;
  int rounds = 0;

  void add(const std::string& name, double v) { total[name] += v; }
  void high(const std::string& name, double v) {
    auto [it, fresh] = peak.try_emplace(name, v);
    if (!fresh) it->second = std::max(it->second, v);
  }
};

Snapshot merged_snapshot(const std::vector<core::Farm*>& farms) {
  Snapshot all;
  for (core::Farm* farm : farms)
    for (const auto& [name, value] : snapshot(farm->metrics()))
      all[name] += value;
  return all;
}

Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d = after;
  for (const auto& [name, value] : before) d[name] -= value;
  return d;
}

/// One fresh farm built from the seed, measured, then checked.
class Round {
 public:
  virtual ~Round() = default;
  /// Construction and warm-up: the timed set-up.
  virtual void build() = 0;
  [[nodiscard]] virtual bool done() const = 0;
  /// One measured step; pushes the step's wall time (ms).
  virtual void step(Samples& latency_ms) = 0;
  /// Work completed in the measured phase, in the workload's unit.
  [[nodiscard]] virtual double units() const = 0;
  /// Operations attempted in the measured phase.
  [[nodiscard]] virtual std::uint64_t operations() const = 0;
  /// Check outputs (wrong ones go to `res`) and return the round's
  /// deterministic work counts as one line.
  virtual std::string finish(Result& res) = 0;
  [[nodiscard]] virtual std::vector<core::Farm*> farms() = 0;
  /// Traced rounds: read published state after each step.
  virtual void observe(LayerAcc& acc) {
    std::uint64_t pending = 0;
    std::int64_t active = 0;
    for (core::Farm* farm : farms()) {
      pending += farm->loop().pending();
      for (const auto& sub : farm->subfarms())
        if (const auto* g = farm->metrics().find_gauge(
                "gw." + sub->name() + ".active_flows"))
          active += g->value();
    }
    acc.high("netsim.event_loop.pending_max", static_cast<double>(pending));
    acc.high("gateway.active_flows_max", static_cast<double>(active));
  }
  /// Traced rounds: layer figures only the round itself can see.
  virtual void report(LayerAcc& /*acc*/) {}

  [[nodiscard]] std::uint64_t events_executed() {
    std::uint64_t n = 0;
    for (core::Farm* farm : farms()) n += farm->loop().events_executed();
    return n;
  }
};

/// Replays the frames a farm archived at its inmate-ingress and upstream
/// taps through pkt::decode_frame and pkt::FrameView::parse, timing each
/// frame as the mean of 16 repeated parses, to stay above clock
/// resolution. The parse results are summed so no call can be elided.
void replay_frames(core::Farm& farm, LayerAcc& acc) {
  SpanScope span("pkt::decode_frame+FrameView", "packet");
  constexpr int kRepeat = 16;
  constexpr std::size_t kMaxFrames = 4000;
  std::vector<pkt::PcapRecord> records =
      farm.gateway().inmate_rx_trace().archive().records();
  const auto upstream = farm.gateway().upstream_trace().archive().records();
  records.insert(records.end(), upstream.begin(), upstream.end());
  if (records.size() > kMaxFrames) records.resize(kMaxFrames);
  std::size_t sink = 0;
  for (auto& rec : records) {
    const std::int64_t t0 = Tracer::get().now_ns();
    for (int i = 0; i < kRepeat; ++i)
      sink += pkt::decode_frame(rec.frame).has_value();
    const std::int64_t t1 = Tracer::get().now_ns();
    for (int i = 0; i < kRepeat; ++i)
      sink += pkt::FrameView::parse(rec.frame).has_value();
    const std::int64_t t2 = Tracer::get().now_ns();
    acc.dist["packet.decode_ns"].add(static_cast<double>(t1 - t0) / kRepeat);
    acc.dist["packet.frameview_ns"].add(static_cast<double>(t2 - t1) /
                                        kRepeat);
    acc.dist["packet.frame_bytes"].add(static_cast<double>(rec.frame.size()));
  }
  acc.add("packet.parsed", static_cast<double>(sink));
}

struct PhaseStats {
  int rounds = 0;
  double measured_wall_s = 0.0;
};

using RoundFactory = std::function<std::unique_ptr<Round>()>;

/// Run rounds until `budget_s` of measured time, and at least
/// `min_rounds`. With `traced`, per-layer figures accumulate there.
PhaseStats run_phase(const RoundFactory& make, Result& res, double budget_s,
                     int min_rounds, LayerAcc* traced,
                     std::string& first_counts) {
  PhaseStats phase;
  while (phase.measured_wall_s < budget_s || phase.rounds < min_rounds) {
    std::unique_ptr<Round> round = make();
    const double setup_start = wall_s();
    {
      SpanScope span(kSetupSpan, "core");
      round->build();
    }
    res.setup_s.add(wall_s() - setup_start);

    Snapshot before;
    std::uint64_t events_before = 0;
    if (traced) {
      before = merged_snapshot(round->farms());
      events_before = round->events_executed();
    }
    const double cpu0 = cpu_s();
    const double wall0 = wall_s();
    Samples steps;
    std::vector<double> ops;
    while (!round->done()) {
      const double op0 = wall_s();
      round->step(steps);
      ops.push_back((wall_s() - op0) * 1e3);
      if (traced) {
        SpanScope span("observe", "bench");
        round->observe(*traced);
      }
    }
    const double wall = wall_s() - wall0;
    res.measured_cpu_s += cpu_s() - cpu0;
    res.measured_wall_s += wall;
    phase.measured_wall_s += wall;
    res.units_per_repetition = round->units();
    res.attempted += round->operations();
    if (!res.op_ms.add(ops) || !res.latency_ms.add(steps.values()))
      res.wrong("a round took another number of steps than the first");
    // One farm's footprint: later rounds add the library's known
    // shared_ptr-cycle leaks, so the peak is read once, here.
    if (res.peak_rss_mb == 0.0) res.peak_rss_mb = peak_rss_mb();

    if (traced) {
      const Snapshot d = delta(before, merged_snapshot(round->farms()));
      const double events =
          static_cast<double>(round->events_executed() - events_before);
      traced->add("netsim.event_loop.events", events);
      traced->add("step_wall_s", steps.sum() / 1e3);
      traced->add("gateway.flows_created",
                  sum_matching(d, "gw.", ".flows_created"));
      traced->add("gateway.frames_from_inmates",
                  sum_matching(d, "gw.", ".frames_from_inmates"));
      traced->add("gateway.safety_rejects",
                  sum_matching(d, "gw.", ".safety.rejects"));
      traced->add("gw.cache_hit", sum_matching(d, "gw.", ".cache_hit"));
      traced->add("gw.cache_miss", sum_matching(d, "gw.", ".cache_miss"));
      traced->add("gw.table_hit", sum_matching(d, "gw.", ".table_hit"));
      traced->add("gw.table_fallback",
                  sum_matching(d, "gw.", ".table_fallback"));
      traced->add("containment.decisions", sum_matching(d, "cs.", ".decisions"));
      traced->add("containment.shed_refused",
                  sum_matching(d, "cs.", ".shed_refused"));
      traced->add("sinks.smtp_sessions", sum_matching(d, "sink.", ".sessions"));
      traced->add("sinks.data_transfers",
                  sum_matching(d, "sink.", ".data_transfers"));
      traced->add("trace.packets", sum_matching(d, "trace.", ".packets"));
      traced->add("trace.evicted", sum_matching(d, "trace.", ".evicted"));
      traced->add("obs.events_published", sum_matching(d, "obs.events.", ""));
      round->report(*traced);
      replay_frames(*round->farms().front(), *traced);
      ++traced->rounds;
    }

    std::string counts;
    {
      SpanScope span("check", "bench");
      counts = round->finish(res);
    }
    if (first_counts.empty()) {
      first_counts = counts;
      std::printf("round work: %s\n", counts.c_str());
    } else if (counts != first_counts) {
      res.wrong("round work counts diverged from the first round: " +
                counts);
    }
    {
      SpanScope span(kTeardownSpan, "core");
      round.reset();
    }
    res.host.sample(res.measured_wall_s);
    ++phase.rounds;
  }
  return phase;
}

/// Fill Result::layer from a traced phase (per-round averages of counts;
/// percentiles of the spans' durations).
void fill_layers(const LayerAcc& acc, const std::vector<Span>& spans,
                 Result& res) {
  const double rounds = std::max(1, acc.rounds);
  const auto total = [&](const char* name) {
    const auto it = acc.total.find(name);
    return it == acc.total.end() ? 0.0 : it->second;
  };
  const auto per_round = [&](const char* name) { return total(name) / rounds; };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  for (const char* name :
       {"netsim.event_loop.events", "gateway.flows_created",
        "gateway.frames_from_inmates", "gateway.safety_rejects",
        "containment.decisions", "containment.shed_refused",
        "sinks.smtp_sessions", "sinks.data_transfers", "trace.packets",
        "trace.evicted", "obs.events_published", "netsim.lockstep.epochs",
        "netsim.lockstep.messages", "netsim.lockstep.run_for_sys_s",
        "netsim.lockstep.overhead_ms", "orchestrator.recycles"})
    res.layer[name] = per_round(name);
  for (const auto& [name, value] : acc.peak) res.layer[name] = value;

  const double events = total("netsim.event_loop.events");
  const double step_wall = total("step_wall_s");
  res.layer["netsim.event_loop.ns_per_event"] = ratio(step_wall * 1e9, events);
  res.layer["netsim.lockstep.epochs_per_event"] =
      ratio(total("netsim.lockstep.epochs"), events);
  res.layer["gateway.cache_hit_ratio"] =
      ratio(total("gw.cache_hit"), total("gw.cache_hit") + total("gw.cache_miss"));
  res.layer["gateway.table_hit_ratio"] =
      ratio(total("gw.table_hit"),
            total("gw.table_hit") + total("gw.table_fallback"));
  res.layer["containment.decisions_per_setup"] =
      ratio(total("containment.decisions"), total("verdicts"));

  std::map<std::string, Samples> by_name;
  for (const Span& s : spans)
    by_name[s.name].add(static_cast<double>(s.end_ns - s.start_ns));
  const auto p = [&](const char* name, double q, double scale) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.percentile(q) / scale;
  };
  res.layer["net.connect_us_p50"] = p("HostStack::connect", 0.5, 1e3);
  res.layer["net.connect_us_p99"] = p("HostStack::connect", 0.99, 1e3);
  const auto connect = by_name.find("HostStack::connect");
  res.layer["net.connect_share"] =
      connect == by_name.end() ? 0.0
                               : ratio(connect->second.sum() / 1e9, step_wall);
  res.layer["net.connections_open_max"] = static_cast<double>(
      g_connections_open_max.load(std::memory_order_relaxed));
  res.layer["orchestrator.submit_us_p50"] =
      p("DetonationService::submit", 0.5, 1e3);
  res.layer["orchestrator.append_flowdb_ms_p50"] =
      p("DetonationService::append_flowdb_store", 0.5, 1e6);
  res.layer["flowdb.compact_ms_p50"] =
      p("SegmentedStore::compact_segments", 0.5, 1e6);
  for (const char* name :
       {"packet.decode_ns", "packet.frameview_ns", "packet.frame_bytes"}) {
    const auto it = acc.dist.find(name);
    res.layer[std::string(name) + "_p50"] =
        it == acc.dist.end() ? 0.0 : it->second.median();
  }
}

/// The common round loop. Set-up is first timed on farms that are built and
/// dropped unrun; then an untraced run measures rounds for --seconds,
/// while a traced run alternates untraced and traced rounds.
Result drive(const Options& options, const RoundFactory& make,
             const std::function<void(Result&, const std::string&)>& extra =
                 {}) {
  Result res;
  constexpr int kExtraSetups = 8;
  for (int i = 0; i < kExtraSetups; ++i) {
    std::unique_ptr<Round> round = make();
    const double start = wall_s();
    round->build();
    res.setup_s.add(wall_s() - start);
  }
  std::string first_counts;
  constexpr int kMinRounds = 2;
  if (!options.trace) {
    run_phase(make, res, options.seconds, kMinRounds, nullptr, first_counts);
    return res;
  }
  // One warm-up round, then untraced and traced rounds alternate, so both
  // halves of the overhead comparison see the same machine conditions.
  run_phase(make, res, 0.0, 1, nullptr, first_counts);
  LayerAcc acc;
  Tracer& tracer = Tracer::get();
  tracer.set_run_id(util::format("%s-seed%llu-%lld", options.workload.c_str(),
                                 static_cast<unsigned long long>(options.seed),
                                 static_cast<long long>(tracer.now_ns())));
  do {
    res.untraced_wall_s +=
        run_phase(make, res, 0.0, 1, nullptr, first_counts).measured_wall_s;
    tracer.start();
    res.traced_wall_s +=
        run_phase(make, res, 0.0, 1, &acc, first_counts).measured_wall_s;
    tracer.stop();
    ++res.rounds;
  } while (res.untraced_wall_s < options.seconds / 2);
  fill_layers(acc, tracer.collect(), res);
  if (extra) extra(res, first_counts);
  return res;
}

// --- detonate ------------------------------------------------------------

/// Every gateway tap keeps 4 x 64 KiB of trace (the s3 budget): taps stay
/// on and rotating without the archives dominating the working set.
const trace::ArchiveConfig kTraceArchive{64 * 1024, 4};

const Ipv4Addr kWebAddr(93, 184, 216, 34);
constexpr std::uint16_t kWebPort = 80;

/// Periodic C&C beacon (the s3 workload): connect out, ping, close on the
/// echo. Jitter from the per-infection Rng keeps jobs' traffic distinct.
class BeaconBehavior : public inm::Behavior {
 public:
  BeaconBehavior(util::Duration interval, util::Rng rng)
      : interval_(interval), rng_(rng) {}

  [[nodiscard]] std::string name() const override { return "beacon"; }

  void start(net::HostStack& host) override {
    host_ = &host;
    running_ = true;
    schedule();
  }

  void stop() override {
    running_ = false;
    conns_.clear();
  }

 private:
  void schedule() {
    const auto jitter = util::microseconds(
        static_cast<std::int64_t>(rng_.below(500'000)));
    host_->loop().schedule_in(interval_ + jitter, guarded([this] {
      if (!running_) return;
      beacon();
      schedule();
    }));
  }

  void beacon() {
    if (!host_->configured()) return;
    std::shared_ptr<net::TcpConnection> conn;
    {
      SpanScope span("HostStack::connect", "net");
      conn = host_->connect({kWebAddr, kWebPort});
    }
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak] {
      if (auto c = weak.lock()) c->send(std::string_view("beacon ping\r\n"));
    };
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) c->close();
    };
    conns_.push_back(std::move(conn));
    note_open_connections(conns_.size());
  }

  net::HostStack* host_ = nullptr;
  bool running_ = false;
  util::Duration interval_;
  util::Rng rng_;
  std::vector<std::shared_ptr<net::TcpConnection>> conns_;
};

void build_beacon_slot(core::Subfarm& sub, std::size_t /*slot*/) {
  sub.add_catchall_sink();
  sub.catalog().register_prototype(
      "beacon.*", [](const std::string&, util::Rng& rng) {
        return std::make_unique<BeaconBehavior>(util::seconds(5), rng.fork());
      });
  const auto& config = sub.router().config();
  sub.configure_containment(util::format(
      "[VLAN %u-%u]\nDecider = ForwardAll\n", config.vlan_first,
      config.vlan_last));
}

class DetonateRound : public Round {
 public:
  static constexpr std::size_t kShards = 2;
  static constexpr std::size_t kSlots = 4;
  static constexpr std::size_t kJobsPerShard = 240;
  static constexpr auto kSlice = util::seconds(10);
  static constexpr int kAppendEverySteps = 12;  // 2 sim-min.
  static constexpr auto kCap = util::hours(2);

  DetonateRound(std::uint64_t seed, unsigned threads, std::string store_dir)
      : seed_(seed), threads_(threads), store_dir_(std::move(store_dir)) {}

  void build() override {
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
    core::ShardedFarmOptions so;
    so.shards = kShards;
    so.threads = threads_;
    so.seed = mix_seed(seed_, 1);
    so.trace_archive = kTraceArchive;
    {
      SpanScope span("ShardedFarm::ShardedFarm", "core");
      farm_ = std::make_unique<core::ShardedFarm>(
          so, [](core::Farm&, std::size_t) {});
    }
    auto& web = farm_->shard(0).add_external_host("web", kWebAddr);
    web.listen(kWebPort, [](std::shared_ptr<net::TcpConnection> conn) {
      std::weak_ptr<net::TcpConnection> weak = conn;
      conn->on_data = [weak](std::span<const std::uint8_t> data) {
        if (auto c = weak.lock()) c->send(data);
      };
    });
    orch::OrchestratorOptions oo;
    oo.pool.slots = kSlots;
    oo.job_archive.segment_bytes = 16 * 1024;
    oo.job_archive.max_segments = 2;
    {
      SpanScope span("DetonationService::DetonationService", "orchestrator");
      service_ = std::make_unique<orch::DetonationService>(*farm_, oo,
                                                           build_beacon_slot);
    }
    for (const char* tenant : kTenants) service_->register_tenant(tenant);
    oracles_.resize(kShards);
    for (std::size_t s = 0; s < kShards; ++s) oracles_[s].attach(farm_->shard(s));

    // Warm-up: every slot's first boot + DHCP, before the backlog exists.
    for (int i = 0; i < 300 && available() < kShards * kSlots; ++i) {
      SpanScope span("ShardedFarm::run_for", "netsim.lockstep");
      farm_->run_for(kSlice);
    }

    // The seeded backlog: tenants, sample names and submission order vary
    // with the seed; the budgets are one fixed multiset (10-30 s), so every
    // seed asks for the same amount of simulated work.
    util::Rng rng(mix_seed(seed_, 2));
    for (std::size_t i = 0; i < kShards * kJobsPerShard; ++i) {
      orch::JobSpec spec;
      spec.tenant = kTenants[rng.below(4)];
      spec.sample = util::format(
          "beacon.%04llu", static_cast<unsigned long long>(rng.below(10000)));
      spec.budget = util::seconds(10 + 5 * static_cast<std::int64_t>(i % 5));
      backlog_.push_back(std::move(spec));
    }
    for (std::size_t i = backlog_.size() - 1; i > 0; --i)
      std::swap(backlog_[i], backlog_[rng.below(i + 1)]);
    // Queued up front: submission is set-up, the drain is measured.
    for (const auto& spec : backlog_) {
      SpanScope span("DetonationService::submit", "orchestrator");
      service_->submit(spec);
    }
  }

  [[nodiscard]] bool done() const override {
    return service_->jobs_completed() >= backlog_.size() || elapsed_ >= kCap;
  }

  void step(Samples& latency_ms) override {
    const bool traced = Tracer::get().recording();
    const sim::LockstepStats stats0 = traced ? farm_->lockstep_stats()
                                             : sim::LockstepStats{};
    const double sys0 = traced ? sys_cpu_s() : 0.0;
    {
      SpanScope span("ShardedFarm::run_for", "netsim.lockstep");
      farm_->run_for(kSlice);
      latency_ms.add(span.elapsed_ms());
    }
    if (traced) {
      const sim::LockstepStats stats1 = farm_->lockstep_stats();
      epochs_ += static_cast<double>(stats1.epochs - stats0.epochs);
      messages_ += static_cast<double>(stats1.messages - stats0.messages);
      run_for_sys_s_ += sys_cpu_s() - sys0;
    }
    elapsed_ = elapsed_ + kSlice;
    if (++steps_ % kAppendEverySteps == 0) append(true);
  }

  [[nodiscard]] double units() const override {
    return static_cast<double>(service_->jobs_completed());
  }
  [[nodiscard]] std::uint64_t operations() const override {
    return backlog_.size() + appends_;
  }

  void observe(LayerAcc& acc) override {
    Round::observe(acc);
    acc.high("orchestrator.queue_depth_max",
             static_cast<double>(service_->queue_depth()));
  }

  void report(LayerAcc& acc) override {
    acc.add("netsim.lockstep.epochs", epochs_);
    acc.add("netsim.lockstep.messages", messages_);
    acc.add("netsim.lockstep.run_for_sys_s", run_for_sys_s_);
    std::uint64_t recycles = 0;
    for (std::size_t s = 0; s < kShards; ++s)
      recycles += service_->shard(s).pool().total_recycles();
    acc.add("orchestrator.recycles", static_cast<double>(recycles));
    acc.add("verdicts", static_cast<double>(verdicts()));
  }

  std::string finish(Result& res) override {
    if (service_->jobs_completed() != backlog_.size() ||
        service_->jobs_rejected() != 0)
      res.wrong(util::format(
          "detonate backlog did not drain: %llu of %zu jobs completed, %llu "
          "rejected",
          static_cast<unsigned long long>(service_->jobs_completed()),
          backlog_.size(),
          static_cast<unsigned long long>(service_->jobs_rejected())));
    for (std::size_t s = 0; s < kShards; ++s) {
      std::string first;
      if (const auto n = oracles_[s].escapes(&first))
        res.wrong(util::format("%llu frame(s) escaped upstream on shard %zu, "
                               "first %s",
                               static_cast<unsigned long long>(n), s,
                               first.c_str()));
    }
    // Final drain flush and compaction; the store must hold every row the
    // flushes wrote.
    append(false);
    if (append_failed_) res.wrong("a detonate FlowDB flush failed");
    {
      auto store = flowdb::SegmentedStore::open(store_dir_);
      SpanScope span("SegmentedStore::compact_segments", "flowdb");
      if (!store || !store->compact_segments()) res.wrong("detonate store compaction failed");
    }
    std::uint64_t store_rows = 0;
    if (auto reader = flowdb::SegmentedReader::open(store_dir_)) {
      store_rows = reader->rows();
      if (store_rows != rows_appended_)
        res.wrong(util::format("detonate store holds %llu rows, %llu appended",
                               static_cast<unsigned long long>(store_rows),
                               static_cast<unsigned long long>(rows_appended_)));
    } else {
      res.wrong("detonate store does not reopen");
    }
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);

    std::uint64_t event_hash = 1469598103934665603ull;
    for (const auto& line : farm_->merged_event_lines())
      event_hash = fnv1a(line, event_hash);
    return util::format(
        "jobs=%llu events=%llu farm_events=%llu verdicts=%llu rows=%llu "
        "event_hash=%016llx",
        static_cast<unsigned long long>(service_->jobs_completed()),
        static_cast<unsigned long long>(events_executed()),
        static_cast<unsigned long long>(farm_->event_count()),
        static_cast<unsigned long long>(verdicts()),
        static_cast<unsigned long long>(store_rows),
        static_cast<unsigned long long>(event_hash));
  }

  std::vector<core::Farm*> farms() override {
    std::vector<core::Farm*> out;
    for (std::size_t s = 0; s < kShards; ++s) out.push_back(&farm_->shard(s));
    return out;
  }

 private:
  static constexpr const char* kTenants[4] = {"acme", "umbrella", "tyrell",
                                              "initech"};

  std::size_t available() {
    std::size_t n = 0;
    for (std::size_t s = 0; s < kShards; ++s)
      n += service_->shard(s).pool().available();
    return n;
  }

  std::uint64_t verdicts() const {
    std::uint64_t n = 0;
    for (const auto& oracle : oracles_) n += oracle.verdicts();
    return n;
  }

  void append(bool sealed_only) {
    SpanScope span("DetonationService::append_flowdb_store", "orchestrator");
    const auto rows = service_->append_flowdb_store(store_dir_, sealed_only);
    ++appends_;
    if (rows) rows_appended_ += *rows;
    else append_failed_ = true;
  }

  std::uint64_t seed_;
  unsigned threads_;
  std::string store_dir_;
  // Oracles outlive the farm: its taps and bus subscriptions call them.
  std::vector<EscapeOracle> oracles_;
  std::unique_ptr<core::ShardedFarm> farm_;
  std::unique_ptr<orch::DetonationService> service_;
  std::vector<orch::JobSpec> backlog_;
  util::Duration elapsed_{};
  int steps_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t rows_appended_ = 0;
  bool append_failed_ = false;
  double epochs_ = 0.0;
  double messages_ = 0.0;
  double run_for_sys_s_ = 0.0;
};

/// Sum of a per-subfarm accessor over every subfarm of a farm.
template <typename Fn>
std::uint64_t sum_subfarms(core::Farm& farm, Fn fn) {
  std::uint64_t n = 0;
  for (const auto& sub : farm.subfarms()) n += fn(*sub);
  return n;
}

/// Steps a single unsharded Farm; the base of spam_farm and scan_setup.
class FarmRound : public Round {
 public:
  FarmRound(util::Duration slice, int steps) : slice_(slice), steps_(steps) {}

  [[nodiscard]] bool done() const override { return taken_ >= steps_; }

  void step(Samples& latency_ms) override {
    SpanScope span("Farm::run_for", "netsim.event_loop");
    farm_->run_for(slice_);
    latency_ms.add(span.elapsed_ms());
    ++taken_;
  }

  std::vector<core::Farm*> farms() override { return {farm_.get()}; }

  void report(LayerAcc& acc) override {
    acc.add("verdicts", static_cast<double>(oracle_.verdicts()));
  }

 protected:
  void warm_up(util::Duration d) {
    SpanScope span("Farm::run_for", "netsim.event_loop");
    farm_->run_for(d);
  }

  void check_escapes(Result& res) {
    std::string first;
    if (const auto n = oracle_.escapes(&first))
      res.wrong(util::format("%llu frame(s) escaped upstream, first %s",
                             static_cast<unsigned long long>(n),
                             first.c_str()));
  }

  [[nodiscard]] std::string common_counts() {
    return util::format(
        "events=%llu flows=%llu decisions=%llu verdicts=%llu upstream=%llu",
        static_cast<unsigned long long>(events_executed()),
        static_cast<unsigned long long>(sum_subfarms(
            *farm_, [](core::Subfarm& s) { return s.router().flows_created(); })),
        static_cast<unsigned long long>(
            sum_subfarms(*farm_, [](core::Subfarm& s) {
              return s.containment().flows_decided();
            })),
        static_cast<unsigned long long>(oracle_.verdicts()),
        static_cast<unsigned long long>(oracle_.upstream_frames()));
  }

  util::Duration slice_;
  int steps_;
  int taken_ = 0;
  // The oracle outlives the farm: its taps and bus subscriptions call it.
  EscapeOracle oracle_;
  std::unique_ptr<core::Farm> farm_;
};

// --- spam_farm -------------------------------------------------------------

const Ipv4Addr kCcAddr(50, 8, 207, 91);

/// 2 subfarms x 6 Grum spambots (s1 sweep C's farm): bots poll the C&C
/// over HTTP and send spam that the Grum decider REFLECTs into each
/// subfarm's banner SMTP sink. 10 simulated minutes in 6 s steps.
class SpamRound : public FarmRound {
 public:
  static constexpr int kSubfarms = 2;
  static constexpr int kInmates = 6;
  static constexpr int kSteps = 100;
  static constexpr std::int64_t kSliceSeconds = 6;

  explicit SpamRound(std::uint64_t seed)
      : FarmRound(util::seconds(kSliceSeconds), kSteps), seed_(seed) {}

  void build() override {
    core::FarmOptions fo;
    fo.seed = mix_seed(seed_, 3);
    fo.trace_archive = kTraceArchive;
    {
      SpanScope span("Farm::Farm", "core");
      farm_ = std::make_unique<core::Farm>(fo);
    }
    oracle_.attach(*farm_);
    auto& cc_host = farm_->add_external_host("cc", kCcAddr);
    cc_ = std::make_unique<ext::CcServer>(cc_host, 80);
    util::Rng rng(mix_seed(seed_, 4));
    mal::SpamTask task;
    for (int i = 0; i < 3; ++i)
      task.targets.push_back(
          {Ipv4Addr(64, 12, static_cast<std::uint8_t>(1 + rng.below(250)),
                    static_cast<std::uint8_t>(1 + rng.below(250))),
           25});
    cc_->set_document("/c2/tasks", task.serialize());
    for (int s = 0; s < kSubfarms; ++s) {
      auto& sub = farm_->add_subfarm(util::format("Spam%d", s));
      sub.add_catchall_sink();
      sinks::SmtpSinkConfig sink_config;
      sink_config.port = 2526;
      sub.add_smtp_sink(sink_config, "bannersmtpsink");
      sub.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});
      sub.containment().samples().add("grum.000.exe");
      sub.catalog().register_prototype(
          "grum.*", [](const std::string&, util::Rng& r) {
            mal::SpambotConfig config;
            config.family = "grum";
            config.c2 = {kCcAddr, 80};
            config.send_interval = util::seconds(2);
            return std::make_unique<mal::SpambotBehavior>(config, r.fork());
          });
      sub.configure_containment(util::format(
          "[VLAN %d-%d]\nDecider = Grum\nInfection = grum.*\n",
          sub.router().config().vlan_first, sub.router().config().vlan_last));
      for (int i = 0; i < kInmates; ++i)
        sub.create_inmate(inm::HostingKind::kVm);
    }
    warm_up(util::minutes(1));  // VM boot, DHCP, auto-infection.
    flows_at_start_ = flows();
  }

  [[nodiscard]] double units() const override {
    return static_cast<double>(kSteps * kSliceSeconds) / 60.0;
  }
  [[nodiscard]] std::uint64_t operations() const override {
    return flows() - flows_at_start_;
  }

  std::string finish(Result& res) override {
    check_escapes(res);
    const std::uint64_t spam = sum_subfarms(*farm_, [](core::Subfarm& s) {
      return s.smtp_sink("bannersmtpsink")->data_transfers();
    });
    if (spam == 0) res.wrong("spam_farm: no spam reached the banner sinks");
    return common_counts() +
           util::format(" spam=%llu cc_requests=%llu",
                        static_cast<unsigned long long>(spam),
                        static_cast<unsigned long long>(cc_->requests()));
  }

 private:
  [[nodiscard]] std::uint64_t flows() const {
    return sum_subfarms(*farm_, [](core::Subfarm& s) {
      return s.router().flows_created();
    });
  }

  std::uint64_t seed_;
  std::uint64_t flows_at_start_ = 0;
  std::unique_ptr<ext::CcServer> cc_;  // Dies before the farm it serves on.
};

// --- scan_setup ------------------------------------------------------------

constexpr std::uint16_t kCachePort = 80;   // Shim once, then verdict cache.
constexpr std::uint16_t kTablePort = 8080; // Compiled policy table.
constexpr std::uint16_t kShimPort = 443;   // Containment server every time.
// Equal shares of cache, table and shim verdicts: the verdict-source mix of
// s7's synthetic flow corpus, which draws every flow's source uniformly
// from the three (bench/s7_flowdb.cc, synth_flows). Probes are dealt from a
// shuffled deck holding each port kEachPerDeck times.
constexpr std::size_t kEachPerDeck = 7;

/// Forwards the three scanned services, each resolved by a different
/// mechanism: port 80 through the CS once and then from the verdict cache
/// (dst-port scope), port 8080 from the compiled table, port 443 through
/// the CS on every flow (pinned to the shim, never cached).
class MixedScanPolicy : public cs::Policy {
 public:
  MixedScanPolicy() : cs::Policy("MixedScan") {}

  cs::Decision decide(const cs::FlowInfo& info) override {
    switch (info.dst().port) {
      case kCachePort:
        return cs::Decision::forward("cacheable")
            .cached(shim::CacheScope::kDstPort, 3'600'000);
      case kTablePort:
        return cs::Decision::forward("table");
      case kShimPort:
        return cs::Decision::forward("shim");
      default:
        return cs::Decision::drop("off-scan");
    }
  }

  std::optional<std::vector<shim::TableRule>> compile() const override {
    const auto rule = [](std::uint16_t port, shim::TableAction action,
                         const char* annotation) {
      shim::TableRule r;
      r.port_first = r.port_last = port;
      r.action = action;
      r.annotation = annotation;
      return r;
    };
    shim::TableRule rest;
    rest.action = shim::TableAction::kDrop;
    rest.annotation = "off-scan";
    return std::vector<shim::TableRule>{
        rule(kTablePort, shim::TableAction::kForward, "table"),
        rule(kCachePort, shim::TableAction::kFallback, ""),
        rule(kShimPort, shim::TableAction::kFallback, ""), rest};
  }
};

struct ScanCounters {
  std::uint64_t probes = 0;
  std::uint64_t resets = 0;
};

/// A worm-style scanner: one new connection every 40 sim-ms to a seeded
/// (target, service) pair, every connection left open.
class ScanBehavior : public inm::Behavior {
 public:
  ScanBehavior(std::vector<Ipv4Addr> targets, util::Rng rng,
               util::TimePoint stop_at, ScanCounters& counters)
      : targets_(std::move(targets)),
        rng_(rng),
        stop_at_(stop_at),
        counters_(counters) {}

  [[nodiscard]] std::string name() const override { return "scan"; }

  void start(net::HostStack& host) override {
    host_ = &host;
    running_ = true;
    schedule();
  }

  void stop() override {
    running_ = false;
    conns_.clear();
  }

 private:
  void schedule() {
    host_->loop().schedule_in(util::milliseconds(40), guarded([this] {
      if (!running_ || host_->loop().now() >= stop_at_) return;
      probe();
      schedule();
    }));
  }

  void probe() {
    if (deck_pos_ == deck_.size()) {  // Reshuffle: exact shares per deck.
      for (std::size_t i = deck_.size() - 1; i > 0; --i)
        std::swap(deck_[i], deck_[rng_.below(i + 1)]);
      deck_pos_ = 0;
    }
    const std::uint16_t port = deck_[deck_pos_++];
    const Ipv4Addr target = targets_[rng_.below(targets_.size())];
    std::shared_ptr<net::TcpConnection> conn;
    {
      SpanScope span("HostStack::connect", "net");
      conn = host_->connect({target, port});
    }
    ScanCounters* counters = &counters_;
    conn->on_reset = [counters] { ++counters->resets; };
    conns_.push_back(std::move(conn));
    ++counters_.probes;
    note_open_connections(conns_.size());
  }

  static std::vector<std::uint16_t> make_deck() {
    std::vector<std::uint16_t> deck;
    for (const std::uint16_t port : {kCachePort, kTablePort, kShimPort})
      deck.insert(deck.end(), kEachPerDeck, port);
    return deck;
  }

  std::vector<Ipv4Addr> targets_;
  util::Rng rng_;
  std::vector<std::uint16_t> deck_ = make_deck();
  std::size_t deck_pos_ = deck_.size();
  util::TimePoint stop_at_;
  ScanCounters& counters_;
  net::HostStack* host_ = nullptr;
  bool running_ = false;
  std::vector<std::shared_ptr<net::TcpConnection>> conns_;
};

/// One scanning inmate against 16 live external hosts for 5 simulated
/// minutes in 2 s steps: ~7,500 connections stay open by the end. (Past
/// ~9,000 the per-connect port walk leaves the cache and step times turn
/// erratic under outside load.)
class ScanRound : public FarmRound {
 public:
  static constexpr int kSteps = 150;
  static constexpr std::int64_t kSliceSeconds = 2;
  static constexpr int kTargets = 16;

  explicit ScanRound(std::uint64_t seed)
      : FarmRound(util::seconds(kSliceSeconds), kSteps), seed_(seed) {}

  void build() override {
    core::FarmOptions fo;
    fo.seed = mix_seed(seed_, 5);
    fo.trace_archive = kTraceArchive;
    {
      SpanScope span("Farm::Farm", "core");
      farm_ = std::make_unique<core::Farm>(fo);
    }
    oracle_.attach(*farm_);
    util::Rng rng(mix_seed(seed_, 6));
    std::vector<Ipv4Addr> targets;
    for (int i = 0; i < kTargets; ++i) {
      const Ipv4Addr addr(93, static_cast<std::uint8_t>(184 + i),
                          static_cast<std::uint8_t>(rng.below(250)),
                          static_cast<std::uint8_t>(1 + rng.below(250)));
      auto& host = farm_->add_external_host(util::format("web%d", i), addr);
      for (const std::uint16_t port : {kCachePort, kTablePort, kShimPort})
        host.listen(port, [](std::shared_ptr<net::TcpConnection>) {});
      targets.push_back(addr);
    }
    auto& sub = farm_->add_subfarm("Scan");
    sub.bind_policy(sub.router().config().vlan_first,
                    sub.router().config().vlan_last,
                    std::make_shared<MixedScanPolicy>());
    auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
    warm_up(util::minutes(1));  // VM boot + DHCP.
    if (!inmate.host().configured()) return;  // finish() reports it.
    const util::TimePoint stop_at =
        farm_->loop().now() + util::seconds(kSteps * kSliceSeconds - 1);
    inmate.infect_with(std::make_unique<ScanBehavior>(
                           std::move(targets), rng.fork(), stop_at, counters_),
                       "scan.000.exe");
    configured_ = true;
  }

  [[nodiscard]] double units() const override {
    return static_cast<double>(oracle_.verdicts());
  }
  [[nodiscard]] std::uint64_t operations() const override {
    return counters_.probes;
  }

  std::string finish(Result& res) override {
    if (!configured_) res.wrong("scan_setup: the scanning inmate never booted");
    check_escapes(res);
    const std::uint64_t verdicts = oracle_.verdicts();
    if (verdicts != counters_.probes)
      res.wrong(util::format("scan_setup: %llu probes but %llu verdicts",
                             static_cast<unsigned long long>(counters_.probes),
                             static_cast<unsigned long long>(verdicts)));
    if (counters_.resets != 0)
      res.wrong(util::format("scan_setup: %llu probes were reset",
                             static_cast<unsigned long long>(counters_.resets)));
    auto& router = farm_->subfarms().front()->router();
    const std::uint64_t decisions =
        farm_->subfarms().front()->containment().flows_decided();
    if (router.cache_hits() == 0 || router.table_hits() == 0 || decisions == 0)
      res.wrong("scan_setup: a verdict path (cache, table, shim) went unused");
    return common_counts() +
           util::format(" probes=%llu cache_hits=%llu table_hits=%llu",
                        static_cast<unsigned long long>(counters_.probes),
                        static_cast<unsigned long long>(router.cache_hits()),
                        static_cast<unsigned long long>(router.table_hits()));
  }

 private:
  std::uint64_t seed_;
  bool configured_ = false;
  // Outlives the farm: connection reset callbacks point at it.
  ScanCounters counters_;
};

}  // namespace

Result run_detonate(const Options& options) {
  const auto dir = [&](const char* tag) {
    return options.work_dir + "/detonate-" + tag + "-store";
  };
  // Measured at one worker thread: at two, every lockstep barrier waits
  // for the slowest thread, and on a shared host the run's wall followed
  // the hypervisor's steal time (10-seed spreads of 0.5-1.2). The traced
  // run replays the batch at two threads to report what they cost.
  Result res = drive(
      options,
      [&] { return std::make_unique<DetonateRound>(options.seed, 1, dir("st")); },
      [&](Result& r, const std::string& serial_counts) {
        // Its work counts must match the serial rounds exactly.
        std::string threaded_counts = serial_counts;
        Result threaded;
        run_phase([&] {
          return std::make_unique<DetonateRound>(options.seed, 2, dir("mt"));
        }, threaded, 0.0, 1, nullptr, threaded_counts);
        if (!threaded.correct)
          r.wrong("2-thread replay of the detonate batch diverged or failed");
        r.layer["netsim.lockstep.overhead_ms"] =
            (threaded.measured_wall_s -
             r.untraced_wall_s / std::max(1, r.rounds)) * 1e3;
      });
  return res;
}


Result run_spam_farm(const Options& options) {
  return drive(options,
               [&] { return std::make_unique<SpamRound>(options.seed); });
}

Result run_scan_setup(const Options& options) {
  return drive(options,
               [&] { return std::make_unique<ScanRound>(options.seed); });
}

}  // namespace perfbench

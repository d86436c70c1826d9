// Detonation-throughput sweep (EXPERIMENTS.md S6): drives the
// multi-tenant DetonationService with thousands of queued job specs
// across 1-4 gateway shards, measuring detonations/hour as the
// recycled-slot pools churn through the backlog. Every row audits the
// per-shard upstream choke points against the verdict event stream
// (zero escapes, exactly like the s2 soak), and the sweep ends with the
// lifecycle-determinism gate: the 2-shard batch rerun with the same
// seed must produce a bit-identical merged event stream and store.
// Exits nonzero on any violation, so CI can gate on both containment
// and reproducibility at service scale. Each row also records the
// events its shared event loop ran.
//
//   build/bench/s3_detonation           # full sweep, >= 1,000 jobs
//   build/bench/s3_detonation --smoke   # abbreviated CI pass
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/sharded_farm.h"
#include "flowdb/store.h"
#include "inmate/inmate.h"
#include "orchestrator/service.h"
#include "packet/frame.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using namespace gq;
using util::Ipv4Addr;

constexpr std::uint64_t kSeed = 0x53D7'0B5E;
const Ipv4Addr kWebAddr(93, 184, 216, 34);
constexpr std::uint16_t kWebPort = 80;

// Minimal periodic C&C beacon (the orchestrator test workload): connect
// out, ping, close on the echo. Jitter from the forked per-infection
// Rng keeps distinct jobs' traffic distinct.
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
    auto conn = host_->connect({kWebAddr, kWebPort});
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak] {
      if (auto c = weak.lock()) c->send(std::string_view("beacon ping\r\n"));
    };
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) c->close();
    };
    conns_.push_back(std::move(conn));
  }

  net::HostStack* host_ = nullptr;
  bool running_ = false;
  util::Duration interval_;
  util::Rng rng_;
  std::vector<std::shared_ptr<net::TcpConnection>> conns_;
};

void build_slot(core::Subfarm& sub, std::size_t /*slot*/) {
  sub.add_catchall_sink();
  sub.catalog().register_prototype(
      "beacon.*", [](const std::string&, util::Rng& rng) {
        return std::make_unique<BeaconBehavior>(util::seconds(5),
                                                rng.fork());
      });
  const auto& config = sub.router().config();
  sub.configure_containment(util::format(
      "[VLAN %u-%u]\nDecider = ForwardAll\n", config.vlan_first,
      config.vlan_last));
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct RowStats {
  std::size_t shards = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t recycles = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t forwards = 0;
  std::uint64_t upstream_frames = 0;
  std::uint64_t escapes = 0;
  double sim_hours = 0.0;
  double detonations_per_hour = 0.0;
  std::uint64_t event_hash = 0;
  std::uint64_t loop_events = 0;
  // Incremental segmented store: sealed jobs flushed at epoch
  // boundaries while the farm runs, final drain flush, deterministic
  // compaction. The hash covers the manifest plus every segment's
  // bytes, so the replay gate also proves incremental append +
  // compaction reproduce byte for byte. segstore_ok requires the
  // store to hold exactly the flows of every job archive.
  std::uint64_t segstore_rows = 0;
  std::uint64_t segstore_segments = 0;
  std::uint64_t segstore_hash = 0;
  bool segstore_ok = false;
};

// One sweep row: `shards` gateway shards with 4 recycled slots each,
// `jobs_per_shard * shards` specs queued up front, run until the whole
// backlog drains (or the cap trips, which fails the gate). The
// segmented store is written to `seg_dir`.
RowStats run_row(std::size_t shards, std::size_t jobs_per_shard,
                 util::Duration cap, const std::string& seg_dir) {
  core::ShardedFarmOptions options;
  options.shards = shards;
  options.seed = kSeed;
  options.trace_archive.segment_bytes = 64 * 1024;
  options.trace_archive.max_segments = 4;
  core::ShardedFarm farm(options, [](core::Farm&, std::size_t) {});

  // One web host homed on shard 0; the other shards reach it across
  // the bridged external segment.
  auto& web = farm.shard(0).add_external_host("web", kWebAddr);
  web.listen(kWebPort, [](std::shared_ptr<net::TcpConnection> conn) {
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_data = [weak](std::span<const std::uint8_t> data) {
      if (auto c = weak.lock()) c->send(data);
    };
  });

  orch::OrchestratorOptions oo;
  oo.pool.slots = 4;
  oo.job_archive.segment_bytes = 16 * 1024;
  oo.job_archive.max_segments = 2;
  orch::DetonationService service(farm, oo, build_slot);
  const char* tenants[] = {"acme", "umbrella", "tyrell", "initech"};
  for (const char* tenant : tenants) service.register_tenant(tenant);

  // Per-shard escape oracle over each gateway's upstream choke point.
  struct Emission {
    pkt::FlowProto proto;
    Ipv4Addr src, dst;
    std::uint16_t dport;
  };
  std::vector<std::vector<Emission>> upstream(shards);
  std::vector<std::vector<obs::FarmEvent>> events(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    farm.shard(s).gateway().set_upstream_tap(
        [&upstream, s](util::TimePoint,
                       const std::vector<std::uint8_t>& bytes) {
          const auto decoded = pkt::decode_frame(bytes);
          if (!decoded || !decoded->ip) return;
          if (!decoded->is_tcp() && !decoded->is_udp()) return;
          upstream[s].push_back({decoded->is_tcp() ? pkt::FlowProto::kTcp
                                                   : pkt::FlowProto::kUdp,
                                 decoded->ip->src, decoded->ip->dst,
                                 decoded->dst_port()});
        });
    farm.shard(s).telemetry().bus().subscribe(
        [&events, s](const obs::FarmEvent& e) {
          if (e.kind == obs::FarmEvent::Kind::kDhcpBind ||
              e.kind == obs::FarmEvent::Kind::kFlowVerdict)
            events[s].push_back(e);
        });
  }

  // The whole backlog queued before the first slot finishes warming:
  // placement is round-robin over submission order, so the schedule is
  // a pure function of the spec sequence.
  const std::size_t total_jobs = jobs_per_shard * shards;
  std::vector<orch::DetonationService::Submission> submissions;
  for (std::size_t i = 0; i < total_jobs; ++i) {
    orch::JobSpec spec;
    spec.tenant = tenants[i % 4];
    spec.sample = util::format("beacon.%04zu", i);
    spec.budget = util::milliseconds(
        15'000 + 5'000 * static_cast<std::int64_t>(i % 4));
    submissions.push_back(service.submit(spec));
  }

  // Drain in one-minute epochs until every job recycles (measured sim
  // time stops with the last completion, not at the cap). Every second
  // epoch, sealed jobs flush incrementally into the segmented store —
  // mid-run, the way a live farm writes its flow history.
  std::error_code seg_ec;
  std::filesystem::remove_all(seg_dir, seg_ec);
  bool seg_ok = true;
  util::Duration elapsed = util::seconds(0);
  std::uint64_t epoch = 0;
  while (service.jobs_completed() < total_jobs && elapsed.usec < cap.usec) {
    farm.run_for(util::minutes(1));
    elapsed = elapsed + util::minutes(1);
    if (++epoch % 2 == 0 && !service.append_flowdb_store(seg_dir))
      seg_ok = false;
  }

  RowStats stats;
  stats.shards = shards;
  stats.loop_events = farm.loop().events_executed();
  stats.submitted = service.jobs_submitted();
  stats.completed = service.jobs_completed();
  stats.sim_hours = static_cast<double>(elapsed.usec) / 3600e6;
  stats.detonations_per_hour =
      stats.sim_hours > 0 ? static_cast<double>(stats.completed) /
                                stats.sim_hours
                          : 0.0;

  // Audit each shard independently: a NATed source seen upstream must
  // map to an authorizing verdict for that exact (proto, src, dst,
  // dport) tuple, with the DHCP-bind stream supplying the vlan->global
  // mapping — same oracle as the s2 soak, per shard.
  for (std::size_t s = 0; s < shards; ++s) {
    stats.recycles += service.shard(s).pool().total_recycles();
    std::set<Ipv4Addr> shard_globals;
    std::map<std::uint16_t, std::set<Ipv4Addr>> globals_by_vlan;
    std::set<std::tuple<pkt::FlowProto, Ipv4Addr, Ipv4Addr, std::uint16_t>>
        authorized;
    for (const auto& e : events[s]) {
      if (e.kind == obs::FarmEvent::Kind::kDhcpBind) {
        globals_by_vlan[e.vlan].insert(e.inmate_global);
        shard_globals.insert(e.inmate_global);
        continue;
      }
      ++stats.verdicts;
      if (e.verdict == shim::Verdict::kForward) ++stats.forwards;
      if (e.verdict != shim::Verdict::kForward &&
          e.verdict != shim::Verdict::kLimit &&
          e.verdict != shim::Verdict::kRewrite)
        continue;
      for (const auto& global : globals_by_vlan[e.vlan])
        authorized.insert(
            {e.proto, global, e.orig_dst.addr, e.orig_dst.port});
    }
    for (const auto& em : upstream[s]) {
      ++stats.upstream_frames;
      if (!shard_globals.count(em.src)) continue;  // Not inmate-sourced.
      if (!authorized.count({em.proto, em.src, em.dst, em.dport})) {
        ++stats.escapes;
        std::fprintf(stderr, "ESCAPE: shard %zu %s -> %s:%u (%s)\n", s,
                     em.src.str().c_str(), em.dst.str().c_str(), em.dport,
                     em.proto == pkt::FlowProto::kTcp ? "tcp" : "udp");
      }
    }
  }

  std::string joined;
  for (const auto& line : farm.merged_event_lines()) {
    joined += line;
    joined += '\n';
  }
  stats.event_hash = fnv1a(joined);

  // Final drain flush (snapshots anything a cap trip left running),
  // deterministic compaction, then hash manifest + segment bytes.
  if (!service.append_flowdb_store(seg_dir, /*sealed_only=*/false))
    seg_ok = false;
  if (auto seg_store = flowdb::SegmentedStore::open(seg_dir);
      !seg_store || !seg_store->compact_segments()) {
    seg_ok = false;
  }
  if (auto seg_reader = flowdb::SegmentedReader::open(seg_dir)) {
    stats.segstore_rows = seg_reader->rows();
    stats.segstore_segments = seg_reader->segment_count();
    std::string seg_bytes;
    const auto slurp = [&seg_bytes](const std::string& path) {
      std::ifstream in(path, std::ios::binary);
      seg_bytes.append(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
      return static_cast<bool>(in);
    };
    if (!slurp(seg_dir + "/" + flowdb::kManifestName)) seg_ok = false;
    for (const auto& info : seg_reader->manifest().segments)
      if (!slurp(seg_dir + "/" + info.file)) seg_ok = false;
    stats.segstore_hash = fnv1a(seg_bytes);
  } else {
    seg_ok = false;
  }
  // Independent row count: the flows indexed by every job's archive,
  // read straight off the job records rather than from the flushes.
  std::uint64_t archived_rows = 0;
  for (const auto& sub : submissions) {
    const orch::JobRecord* job = service.shard(sub.shard).job(sub.job);
    if (job && job->archive)
      archived_rows += job->archive->index().flow_count();
  }
  stats.segstore_ok = seg_ok && stats.segstore_rows == archived_rows;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  const std::size_t shard_counts_full[] = {1, 2, 4};
  const std::size_t shard_counts_smoke[] = {1, 2};
  const auto* shard_counts = smoke ? shard_counts_smoke : shard_counts_full;
  const std::size_t rows = smoke ? 2 : 3;
  const std::size_t jobs_per_shard = smoke ? 12 : 264;
  const auto cap = smoke ? util::hours(2) : util::hours(8);

  std::printf(
      "S3. Detonation throughput across shards (%s sweep, %zu jobs/shard)\n",
      smoke ? "smoke" : "full", jobs_per_shard);
  std::printf("%7s %8s %10s %10s %9s %9s %10s %8s %10s %10s\n", "shards",
              "jobs", "completed", "recycles", "verdicts", "forwards",
              "upstream", "escapes", "sim_min", "det/hour");

  util::JsonWriter json;
  json.begin_object();
  json.key("bench");
  json.value("s3_detonation");
  json.key("smoke");
  json.value(smoke);
  json.key("jobs_per_shard");
  json.value(static_cast<std::uint64_t>(jobs_per_shard));
  json.key("seed");
  json.value(kSeed);
  json.key("rows");
  json.begin_array();

  bool drained = true;
  bool flowdb_ok = true;
  std::uint64_t total_completed = 0;
  std::uint64_t total_escapes = 0;
  RowStats replay_first;  // The 2-shard row, present in every sweep.
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t shards = shard_counts[r];
    const auto stats =
        run_row(shards, jobs_per_shard, cap,
                util::format("BENCH_s3_segstore_%zushard", shards));
    if (shards == 2) replay_first = stats;
    drained = drained && stats.completed == stats.submitted;
    total_completed += stats.completed;
    total_escapes += stats.escapes;
    std::printf(
        "%7zu %8llu %10llu %10llu %9llu %9llu %10llu %8llu %10.1f %10.1f\n",
        stats.shards, static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.recycles),
        static_cast<unsigned long long>(stats.verdicts),
        static_cast<unsigned long long>(stats.forwards),
        static_cast<unsigned long long>(stats.upstream_frames),
        static_cast<unsigned long long>(stats.escapes),
        stats.sim_hours * 60.0, stats.detonations_per_hour);
    json.begin_object();
    json.key("shards");
    json.value(static_cast<std::uint64_t>(stats.shards));
    json.key("jobs_submitted");
    json.value(stats.submitted);
    json.key("jobs_completed");
    json.value(stats.completed);
    json.key("recycles");
    json.value(stats.recycles);
    json.key("verdicts");
    json.value(stats.verdicts);
    json.key("forwards");
    json.value(stats.forwards);
    json.key("upstream_frames");
    json.value(stats.upstream_frames);
    json.key("escapes");
    json.value(stats.escapes);
    json.key("sim_hours");
    json.value(stats.sim_hours);
    json.key("detonations_per_hour");
    json.value(stats.detonations_per_hour);
    json.key("event_hash");
    json.value(util::format("%016llx", static_cast<unsigned long long>(
                                           stats.event_hash)));
    json.key("segstore_rows");
    json.value(stats.segstore_rows);
    json.key("segstore_segments");
    json.value(stats.segstore_segments);
    json.key("segstore_hash");
    json.value(util::format("%016llx", static_cast<unsigned long long>(
                                           stats.segstore_hash)));
    json.key("loop_events");
    json.value(stats.loop_events);
    json.end_object();
    flowdb_ok = flowdb_ok && stats.segstore_ok;
  }
  json.end_array();

  // Lifecycle-determinism gate: the 2-shard batch rerun with the same
  // seed must produce the identical merged event stream (state machine,
  // flows, recycle schedule — everything observable) as the sweep row.
  const auto rerun = run_row(2, jobs_per_shard, cap,
                             "BENCH_s3_segstore_2shard_rerun");
  flowdb_ok = flowdb_ok && rerun.segstore_ok;
  // Same-seed runs must also leave byte-identical FlowDB stores — the
  // cross-run contract the gq_trace diff gate depends on: the
  // incrementally-appended, compacted store dirs (manifest + every
  // segment) must match.
  const bool identical = replay_first.event_hash == rerun.event_hash &&
                         replay_first.completed == rerun.completed &&
                         replay_first.segstore_hash == rerun.segstore_hash;
  json.key("replay_check");
  json.begin_object();
  json.key("shards");
  json.value(static_cast<std::uint64_t>(2));
  json.key("hash_first");
  json.value(util::format("%016llx", static_cast<unsigned long long>(
                                         replay_first.event_hash)));
  json.key("hash_rerun");
  json.value(util::format("%016llx", static_cast<unsigned long long>(
                                         rerun.event_hash)));
  json.key("segstore_hash_first");
  json.value(util::format("%016llx", static_cast<unsigned long long>(
                                         replay_first.segstore_hash)));
  json.key("segstore_hash_rerun");
  json.value(util::format("%016llx", static_cast<unsigned long long>(
                                         rerun.segstore_hash)));
  json.key("bit_identical");
  json.value(identical);
  json.end_object();
  json.end_object();

  if (!util::json_valid(json.str())) {
    std::fprintf(stderr, "s3: generated BENCH_S3.json is not valid JSON\n");
    return 1;
  }
  {
    std::ofstream out("BENCH_S3.json", std::ios::binary | std::ios::trunc);
    out << json.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "s3: cannot write BENCH_S3.json\n");
      return 1;
    }
  }
  std::ifstream back("BENCH_S3.json", std::ios::binary);
  const std::string reread((std::istreambuf_iterator<char>(back)),
                           std::istreambuf_iterator<char>());
  if (!util::json_valid(reread)) {
    std::fprintf(stderr, "s3: BENCH_S3.json failed round-trip validation\n");
    return 1;
  }
  std::printf("\nwrote BENCH_S3.json (validated)\n");

  if (!drained) {
    std::fprintf(stderr, "\nTHROUGHPUT FAILURE: a row's job backlog did "
                         "not drain within the simulated-time cap\n");
    return 1;
  }
  if (!smoke && total_completed < 1000) {
    std::fprintf(stderr,
                 "\nTHROUGHPUT FAILURE: only %llu jobs completed (>= 1000 "
                 "required for the full sweep)\n",
                 static_cast<unsigned long long>(total_completed));
    return 1;
  }
  if (total_escapes > 0) {
    std::fprintf(stderr,
                 "\nCONTAINMENT FAILURE: %llu frame(s) escaped upstream "
                 "without an authorizing verdict\n",
                 static_cast<unsigned long long>(total_escapes));
    return 1;
  }
  if (!flowdb_ok) {
    std::fprintf(stderr, "\nFLOWDB FAILURE: a row's segmented store did "
                         "not save or reopen with the expected rows\n");
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr, "\nDETERMINISM FAILURE: same-seed rerun of the "
                         "2-shard batch diverged\n");
    return 1;
  }
  std::printf("%llu detonations completed, zero escapes, same-seed rerun "
              "bit-identical\n",
              static_cast<unsigned long long>(total_completed));
  return 0;
}

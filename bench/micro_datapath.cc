// Microbenchmarks of GQ's data-path primitives (google-benchmark): the
// per-packet costs behind §6's implementation — frame build and parse,
// checksums, whole-frame decode/re-encode (the decoded reference for the
// gateway's in-place NAT rewrite), shim encode/parse, flow-table keying,
// policy decisions, trigger matching, MD5 hashing, switch forwarding,
// the telemetry primitives (counter bump, histogram observe, event-bus
// publish), the per-segment cost of a FlowDB query (footer seal hash,
// and the whole validating Reader::open of a 16,384-row segment), and
// HostStack::connect against 2,000 and 8,000 open connections.
// After the benchmarks it runs a miniature farm and prints the built-in
// flow-decision latency histogram plus a JSON dump of every metric.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <unordered_map>

#include "containment/policies.h"
#include "containment/trigger.h"
#include "core/farm.h"
#include "flowdb/flowdb.h"
#include "net/stack.h"
#include "netsim/event_loop.h"
#include "netsim/vlan_switch.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "packet/checksum.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "shim/shim.h"
#include "util/glob.h"
#include "util/md5.h"
#include "util/rng.h"

namespace {

using namespace gq;
using util::Ipv4Addr;

const pkt::EthHeader kSampleEth{.dst = util::MacAddr::local(1),
                                .src = util::MacAddr::local(2)};
const pkt::Ipv4Header kSampleIp{.src = Ipv4Addr(10, 0, 0, 23),
                                .dst = Ipv4Addr(192, 150, 187, 12)};
const pkt::TcpHeader kSampleTcp{.src_port = 1234,
                                .dst_port = 80,
                                .seq = 0x1000,
                                .flags = pkt::kTcpAck | pkt::kTcpPsh};

// A VLAN-16 data segment carrying `payload_size` bytes of 'A'.
std::vector<std::uint8_t> sample_tcp_frame(std::size_t payload_size) {
  pkt::EthHeader eth = kSampleEth;
  eth.vlan = 16;
  return pkt::build_tcp(eth, kSampleIp, kSampleTcp,
                        std::vector<std::uint8_t>(payload_size, 0x41));
}

void BM_Checksum1460(benchmark::State& state) {
  std::vector<std::uint8_t> data(1460, 0x5A);
  for (auto _ : state) benchmark::DoNotOptimize(pkt::checksum(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1460);
}
BENCHMARK(BM_Checksum1460);

// The event loop is the hottest structure in the whole system: every
// frame hop, timer, and shim round trip is a schedule (and often a
// cancel — TCP retransmission timers cancel on every ACK). This
// measures the schedule→cancel→drain cycle that the slot+generation
// bookkeeping optimizes (formerly two unordered_set probes per event).
void BM_EventLoopScheduleCancel(benchmark::State& state) {
  sim::EventLoop loop;
  const std::size_t batch = 64;
  std::vector<sim::EventId> ids(batch);
  for (auto _ : state) {
    // Half the events get cancelled (the retransmit-timer pattern),
    // half run; the drain pays the pop-side bookkeeping.
    for (std::size_t i = 0; i < batch; ++i) {
      ids[i] = loop.schedule_in(util::microseconds(static_cast<int>(i)),
                                [] {});
    }
    for (std::size_t i = 0; i < batch; i += 2) loop.cancel(ids[i]);
    loop.run_for(util::microseconds(static_cast<int>(batch)));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_EventLoopScheduleCancel);

void BM_FrameDecode(benchmark::State& state) {
  auto bytes = sample_tcp_frame(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(pkt::decode_frame(bytes));
}
BENCHMARK(BM_FrameDecode)->Arg(0)->Arg(512)->Arg(1460);

void BM_FrameBuildTcp(benchmark::State& state) {
  // A host's TCP send: header fields and a payload span out of the
  // connection's send buffer, built into one wire frame.
  const std::vector<std::uint8_t> send_buf(
      static_cast<std::size_t>(state.range(0)), 0x41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pkt::build_tcp(kSampleEth, kSampleIp, kSampleTcp, send_buf));
  }
}
BENCHMARK(BM_FrameBuildTcp)->Arg(0)->Arg(512)->Arg(1460);

void BM_FrameRewriteReencode(benchmark::State& state) {
  // The decoded reference: decode, NAT-rewrite, re-encode.
  auto bytes = sample_tcp_frame(512);
  for (auto _ : state) {
    auto frame = pkt::decode_frame(bytes);
    frame->ip->src = Ipv4Addr(198, 18, 0, 10);
    frame->tcp->src_port = 4444;
    frame->tcp->seq += 24;
    benchmark::DoNotOptimize(frame->encode());
  }
}
BENCHMARK(BM_FrameRewriteReencode);

void BM_FrameViewRewrite(benchmark::State& state) {
  // The gateway's datapath: the same NAT rewrite applied in place
  // through a FrameView with incrementally maintained checksums.
  auto bytes = sample_tcp_frame(512);
  for (auto _ : state) {
    auto view = pkt::FrameView::parse(bytes);
    view->set_ip_src(Ipv4Addr(198, 18, 0, 10));
    view->set_src_port(4444);
    view->set_tcp_seq(view->tcp_seq() + 24);
    benchmark::DoNotOptimize(bytes.data());
  }
}
BENCHMARK(BM_FrameViewRewrite);

void BM_RequestShimEncode(benchmark::State& state) {
  shim::RequestShim shim;
  shim.orig = {Ipv4Addr(10, 0, 0, 23), 1234};
  shim.resp = {Ipv4Addr(192, 150, 187, 12), 80};
  shim.vlan = 12;
  for (auto _ : state) benchmark::DoNotOptimize(shim.encode());
}
BENCHMARK(BM_RequestShimEncode);

void BM_ResponseShimParse(benchmark::State& state) {
  shim::ResponseShim shim;
  shim.verdict = shim::Verdict::kReflect;
  shim.policy_name = "Grum";
  shim.annotation = "full SMTP containment";
  auto bytes = shim.encode();
  for (auto _ : state)
    benchmark::DoNotOptimize(shim::ResponseShim::parse(bytes));
}
BENCHMARK(BM_ResponseShimParse);

void BM_ShimRoundTrip(benchmark::State& state) {
  // The protocol cost a verdict-cache hit removes from flow setup: the
  // gateway encodes a request shim, the containment server parses it,
  // decides, encodes the response, and the gateway parses that back.
  // (Network latency and the CS decision itself come on top — this is
  // the serialization floor of one shim round trip.)
  shim::RequestShim request;
  request.orig = {Ipv4Addr(10, 0, 0, 23), 1234};
  request.resp = {Ipv4Addr(192, 150, 187, 12), 80};
  request.vlan = 16;
  for (auto _ : state) {
    auto request_bytes = request.encode();
    auto parsed_request = shim::RequestShim::parse(request_bytes);
    shim::ResponseShim response;
    response.orig = parsed_request->orig;
    response.resp = parsed_request->resp;
    response.verdict = shim::Verdict::kForward;
    response.policy_name = "Cycling";
    response.cacheable = true;
    response.cache_scope = shim::CacheScope::kDstEndpoint;
    response.cache_ttl_ms = 30000;
    response.policy_epoch = 1;
    auto response_bytes = response.encode();
    benchmark::DoNotOptimize(shim::ResponseShim::parse(response_bytes));
  }
}
BENCHMARK(BM_ShimRoundTrip);

std::vector<pkt::FlowKey> sample_flow_keys(int count) {
  util::Rng rng(1);
  std::vector<pkt::FlowKey> keys;
  for (int i = 0; i < count; ++i) {
    keys.push_back(
        pkt::FlowKey{pkt::FlowProto::kTcp,
                     {Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                      static_cast<std::uint16_t>(rng.next())},
                     {Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                      static_cast<std::uint16_t>(rng.next())}});
  }
  return keys;
}

// The two flow-table representations side by side: the tree map the
// router used to key flows on vs. the FlowKeyHash table it uses now.
template <typename Table>
void flow_key_lookup(benchmark::State& state) {
  const auto keys = sample_flow_keys(1000);
  Table table;
  for (std::size_t i = 0; i < keys.size(); ++i)
    table[keys[i]] = static_cast<int>(i);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.find(keys[i++ % keys.size()]));
  }
}

void BM_FlowKeyLookup(benchmark::State& state) {
  flow_key_lookup<std::map<pkt::FlowKey, int>>(state);
}
BENCHMARK(BM_FlowKeyLookup);

void BM_FlowKeyLookupHashed(benchmark::State& state) {
  flow_key_lookup<
      std::unordered_map<pkt::FlowKey, int, pkt::FlowKeyHash>>(state);
}
BENCHMARK(BM_FlowKeyLookupHashed);

void BM_PolicyDecide(benchmark::State& state) {
  cs::PolicyEnv env;
  env.services["sink"] = {Ipv4Addr(10, 3, 0, 9), 9999};
  env.services["smtpsink"] = {Ipv4Addr(10, 3, 0, 10), 2525};
  env.services["autoinfect"] = {Ipv4Addr(10, 9, 8, 7), 6543};
  cs::RustockPolicy policy(env);
  cs::FlowInfo info;
  info.shim.orig = {Ipv4Addr(10, 0, 0, 23), 1234};
  info.shim.resp = {Ipv4Addr(5, 5, 5, 5), 25};
  info.shim.vlan = 16;
  for (auto _ : state) benchmark::DoNotOptimize(policy.decide(info));
}
BENCHMARK(BM_PolicyDecide);

void BM_TriggerObserve(benchmark::State& state) {
  cs::TriggerEngine engine;
  engine.add(16, 31, *cs::Trigger::parse("*:25/tcp / 30min < 1 -> revert"));
  engine.inmate_started(16, util::TimePoint{});
  util::TimePoint t{};
  for (auto _ : state) {
    t = t + util::milliseconds(10);
    engine.observe_flow(16, {Ipv4Addr(1, 2, 3, 4), 25},
                        pkt::FlowProto::kTcp, t);
  }
}
BENCHMARK(BM_TriggerObserve);

void BM_GlobMatch(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        util::glob_match("rustock.100921.*.exe", "rustock.100921.042.exe"));
  }
}
BENCHMARK(BM_GlobMatch);

void BM_Md5Sample(benchmark::State& state) {
  std::string payload(4096, 'S');
  for (auto _ : state)
    benchmark::DoNotOptimize(util::Md5::hex_digest(payload));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_Md5Sample);

void BM_SwitchForward(benchmark::State& state) {
  sim::EventLoop loop;
  sim::VlanSwitch sw(loop, "sw", 3);
  sim::Port a(loop, "a"), b(loop, "b");
  sim::Port::connect(a, sw.port(0), util::microseconds(1));
  sim::Port::connect(b, sw.port(1), util::microseconds(1));
  sw.set_access(0, 7);
  sw.set_access(1, 7);
  b.set_rx([](sim::Frame) {});
  // Teach the switch both MACs.
  b.transmit(sim::Frame{pkt::build_ipv4(
      {.dst = util::MacAddr::broadcast(), .src = util::MacAddr::local(2)}, {},
      std::vector<std::uint8_t>(26, 0))});
  loop.run_all();
  // 512 bytes behind the L2 header.
  const auto frame_bytes = pkt::build_ipv4(
      {.dst = util::MacAddr::local(2), .src = util::MacAddr::local(1)}, {},
      std::vector<std::uint8_t>(492, 0));
  for (auto _ : state) {
    a.transmit(sim::Frame{frame_bytes});
    loop.run_all();
  }
}
BENCHMARK(BM_SwitchForward);

void BM_PortTransmitDeliver(benchmark::State& state) {
  // One frame over a bare link: transmit, one scheduled delivery, the
  // receive handler. A fresh frame per send, as every sender builds one.
  sim::EventLoop loop;
  sim::Port a(loop, "a"), b(loop, "b");
  sim::Port::connect(a, b, util::microseconds(1));
  std::size_t received = 0;
  b.set_rx([&received](sim::Frame f) { received += f.bytes.size(); });
  const auto frame_bytes =
      sample_tcp_frame(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    a.transmit(sim::Frame{frame_bytes});
    loop.run_all();
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PortTransmitDeliver)->Arg(0)->Arg(1460);

void BM_MetricsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  auto& counter = registry.counter("bench.frames");
  // ClobberMemory keeps each increment a store the compiler cannot fold
  // into one add after the loop.
  for (auto _ : state) {
    counter.inc();
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_MetricsCounterInc);

void BM_VerdictCounterByName(benchmark::State& state) {
  // What the router's hot path used to do per verdict event: rebuild
  // the metric name ("gw." + subfarm + ".verdicts." + verdict) and walk
  // the registry map, allocating twice per event.
  obs::MetricsRegistry registry;
  const std::string subfarm = "Micro";
  auto verdict = shim::Verdict::kForward;
  for (auto _ : state) {
    registry
        .counter("gw." + subfarm + ".verdicts." + shim::verdict_name(verdict))
        .inc();
    verdict = verdict == shim::Verdict::kRewrite
                  ? shim::Verdict::kForward
                  : static_cast<shim::Verdict>(
                        static_cast<std::uint32_t>(verdict) + 1);
  }
}
BENCHMARK(BM_VerdictCounterByName);

void BM_VerdictCounterByHandle(benchmark::State& state) {
  // What it does now: six counter handles resolved once at router
  // construction, indexed by verdict — a load and an increment.
  obs::MetricsRegistry registry;
  const std::string subfarm = "Micro";
  std::array<obs::Counter*, 6> handles{};
  for (std::uint32_t v = 1; v <= handles.size(); ++v)
    handles[v - 1] = &registry.counter(
        "gw." + subfarm + ".verdicts." +
        shim::verdict_name(static_cast<shim::Verdict>(v)));
  auto verdict = shim::Verdict::kForward;
  for (auto _ : state) {
    handles[static_cast<std::uint32_t>(verdict) - 1]->inc();
    verdict = verdict == shim::Verdict::kRewrite
                  ? shim::Verdict::kForward
                  : static_cast<shim::Verdict>(
                        static_cast<std::uint32_t>(verdict) + 1);
  }
}
BENCHMARK(BM_VerdictCounterByHandle);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  auto& hist = registry.histogram("bench.latency_us");
  double value = 1.0;
  for (auto _ : state) {
    hist.observe(value);
    benchmark::ClobberMemory();
    value = value < 1e6 ? value * 1.7 : 1.0;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramObserve);

void BM_EventBusPublish(benchmark::State& state) {
  obs::EventBus bus;
  std::uint64_t seen = 0;
  for (std::int64_t i = 0; i < state.range(0); ++i)
    bus.subscribe([&seen](const obs::FarmEvent&) { ++seen; });
  obs::FarmEvent event;
  event.kind = obs::FarmEvent::Kind::kFlowVerdict;
  event.subfarm = "bench";
  event.verdict = shim::Verdict::kForward;
  for (auto _ : state) bus.publish(event);
  benchmark::DoNotOptimize(seen);
}
BENCHMARK(BM_EventBusPublish)->Arg(0)->Arg(1)->Arg(4);

// One sealed FlowDB segment in s7's skip-scan layout: 16,384 rows of one
// time slab, vlan and tenant, endpoints from per-segment /24s (~1.33 MB).
const std::vector<std::uint8_t>& sample_segment() {
  static const std::vector<std::uint8_t> bytes = [] {
    util::Rng rng(0x5E6);
    flowdb::Writer writer;
    for (std::size_t i = 0; i < flowdb::kScanChunk; ++i) {
      flowdb::Row row;
      row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
      row.src = {Ipv4Addr(10, 20, 3,
                          static_cast<std::uint8_t>(rng.below(200) + 1)),
                 static_cast<std::uint16_t>(rng.range(1024, 65000))};
      row.dst = {Ipv4Addr(10, 123, 0,
                          static_cast<std::uint8_t>(rng.below(64) + 1)),
                 static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
      row.vlan = 203;
      row.tenant = "seg-t3";
      row.job = 3000 + rng.below(16) + 1;
      row.verdict = static_cast<std::uint8_t>(1 + rng.below(6));
      row.source = static_cast<std::uint8_t>(rng.below(3));
      row.policy = "default";
      row.tap = "bench";
      row.packets = 1 + rng.below(200);
      row.bytes = row.packets * (60 + rng.below(1400));
      row.first_usec = 60'000'000 + static_cast<std::int64_t>(i) * 1000;
      row.last_usec = row.first_usec + static_cast<std::int64_t>(rng.below(900));
      row.locations.push_back({rng.below(16), rng.below(1u << 20)});
      writer.add(std::move(row));
    }
    return writer.encode();
  }();
  return bytes;
}

// The footer hash every FlowDB open pays over the whole sealed segment.
void BM_SealHash(benchmark::State& state) {
  const auto& bytes = sample_segment();
  const std::span<const std::uint8_t> sealed(bytes.data(), bytes.size() - 16);
  for (auto _ : state) benchmark::DoNotOptimize(flowdb::seal_hash(sealed));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sealed.size()));
}
BENCHMARK(BM_SealHash)->Unit(benchmark::kMicrosecond);

// Reader::open on a sealed segment file: mmap, footer hash, structural
// checks and the zone-block recompute — what each query pays per
// segment the planner cannot prune.
void BM_SegmentOpen(benchmark::State& state) {
  const auto& bytes = sample_segment();
  const std::string path =
      (std::filesystem::temp_directory_path() / "micro_datapath_segment.fdb")
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  for (auto _ : state) {
    auto reader = flowdb::Reader::open(path);
    if (!reader) {
      state.SkipWithError("segment failed to open");
      break;
    }
    benchmark::DoNotOptimize(reader->rows());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_SegmentOpen)->Unit(benchmark::kMicrosecond);

// HostStack::connect on a host that already holds range(0) open
// connections: one connect plus close per iteration, so the ephemeral-
// port choice is timed against a full connection table. The host is
// unconfigured, so each SYN is dropped before it reaches a wire. The
// open connections are made before timing starts; the event loop's
// pending retransmit timers (live or cancelled) are dropped outside the
// timed region so they do not pile up across iterations.
void BM_HostStackConnect(benchmark::State& state) {
  sim::EventLoop loop;
  net::HostStack host(loop, "bench", util::MacAddr::local(1), 1);
  std::vector<std::shared_ptr<net::TcpConnection>> open;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    open.push_back(host.connect(
        {Ipv4Addr(50, 0, static_cast<std::uint8_t>(i >> 8),
                  static_cast<std::uint8_t>(i)),
         80}));
  }
  loop.drop_pending();
  const util::Endpoint dst{Ipv4Addr(60, 0, 0, 1), 80};
  std::int64_t n = 0;
  for (auto _ : state) {
    const auto conn = host.connect(dst);
    benchmark::DoNotOptimize(conn->local().port);
    conn->close();
    if (++n % 1024 == 0) {
      state.PauseTiming();
      loop.drop_pending();
      state.ResumeTiming();
    }
  }
  loop.drop_pending();
}
// A fixed minimum time, so the smoke run's connect_scaling_perf gate
// compares runs of ~100k connects each rather than 10 ms samples. A run
// now and then also lands in a speed mode of its own (~300 against
// ~520 ns per connect at 2,000 open, on one 4-core host), so every size
// runs five times on a fresh stack and the gate compares the medians.
BENCHMARK(BM_HostStackConnect)
    ->Arg(2000)
    ->Arg(8000)
    ->MinTime(0.05)
    ->Repetitions(5);

// A miniature farm serving a burst of contained flows, to demonstrate
// the gateway's built-in instrumentation: the inmate-SYN-to-verdict-
// applied latency histogram and the metrics registry JSON export.
void print_decision_latency_report() {
  core::Farm farm;
  auto& sub = farm.add_subfarm("Micro");
  sub.add_catchall_sink();
  sub.bind_policy(16, 31,
                  std::make_shared<cs::SinkAllPolicy>(sub.policy_env()));
  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::seconds(30));  // VM boot + DHCP.

  for (int i = 0; i < 32; ++i) {
    auto conn = inmate.host().connect(
        {Ipv4Addr(50, 8, 200, static_cast<std::uint8_t>(10 + i)), 80});
    conn->on_connected = [conn] { conn->send("GET / HTTP/1.0\r\n\r\n"); };
    farm.run_for(util::milliseconds(500));
  }
  farm.run_for(util::seconds(10));

  const std::string name = "gw.Micro.decision_latency_us";
  if (const auto* hist = farm.metrics().find_histogram(name)) {
    std::printf("\n%s", hist->render(name).c_str());
  }
  std::printf("\nMetrics registry (JSON):\n%s\n",
              farm.metrics().render_json().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_decision_latency_report();
  return 0;
}

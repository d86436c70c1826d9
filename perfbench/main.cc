// gqbench: the repository benchmark.
//
//   gqbench --workload <detonate|spam_farm|scan_setup|flow_query>
//           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"} whose metrics map each
// name to its value. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 they are the per-layer ones a workload exercises, and
// the spans are written to <work-dir>/spans-<run id>.jsonl. Units, and
// the full metric lists, live in BENCHMARK.json; run.py attaches them.
// Exits 1 when any output was wrong, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "util/log.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Result;

const std::map<std::string, std::function<Result(const Options&)>>
    kWorkloads = {
        {"detonate", perfbench::run_detonate},
        {"spam_farm", perfbench::run_spam_farm},
        {"scan_setup", perfbench::run_scan_setup},
        {"flow_query", perfbench::run_flow_query},
};

// What one unit of rate_per_s is, per workload.
const std::map<std::string, const char*> kUnitOfWork = {
    {"detonate", "jobs drained"},
    {"spam_farm", "simulated minutes"},
    {"scan_setup", "flow verdicts applied"},
    {"flow_query", "queries"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "gqbench: %s\nusage: gqbench --workload "
               "<detonate|spam_farm|scan_setup|flow_query> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.work_dir = ".bench_build/work";
  double trace = -1.0;
  double seed = -1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!parse_number(value, seed) || seed < 0) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_number(value, options.seconds) || options.seconds <= 0)
        return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (!parse_number(value, trace) || (trace != 0.0 && trace != 1.0))
        return usage("bad --trace");
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const auto workload = kWorkloads.find(options.workload);
  if (workload == kWorkloads.end()) return usage("unknown --workload");
  if (seed < 0) return usage("--seed is required");
  if (trace < 0) return usage("--trace is required");
  options.seed = static_cast<std::uint64_t>(seed);
  options.trace = trace == 1.0;
  // Recycled detonation slots make the echo server's half of old
  // connections time out; those WARN lines are expected, not results.
  gq::util::Log::set_level(gq::util::LogLevel::kError);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return usage("cannot create --work-dir");

  Result res = workload->second(options);

  std::vector<std::pair<std::string, double>> values;
  if (!options.trace) {
    const double wall = res.measured_wall_s;
    // A run repeats one sequence of operations; each operation counts at
    // the fastest of its repetitions. The rate is one repetition's work
    // over the sum of its operations' times, and the latency percentiles
    // run over the distinct steps (or queries) of one repetition. Every
    // timed figure is scaled to the reference host speed.
    const double scale = res.host.time_scale();
    perfbench::Samples ops;
    for (const double ms : res.op_ms.fastest()) ops.add(ms * scale);
    perfbench::Samples latency;
    for (const double ms : res.latency_ms.fastest()) latency.add(ms * scale);
    const double rate =
        ops.sum() > 0 ? res.units_per_repetition / (ops.sum() / 1e3) : 0.0;
    values = {
        {"setup_s", res.setup_s.median() * scale},
        {"rate_per_s", rate},
        {"latency_ms_p50", latency.percentile(0.50)},
        {"latency_ms_p99", latency.percentile(0.99)},
        // CPU of the measured phase, scaled to a measured phase of exactly
        // --seconds, so a run that overshoots its budget reads the same.
        {"cpu_s", wall > 0 ? res.measured_cpu_s * options.seconds / wall : 0.0},
        {"peak_rss_mb", res.peak_rss_mb},
    };
    std::printf("workload %s seed %llu: %.3f s measured, %zu repetitions of "
                "%.0f %s in %zu operations, %zu set-ups, %zu latency "
                "operations\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), wall,
                res.op_ms.repetitions(), res.units_per_repetition,
                kUnitOfWork.at(options.workload), ops.size(),
                res.setup_s.size(), latency.size());
    std::printf("host speed: reference kernel fastest %.4f ms of %zu "
                "repetitions; timed metrics scaled by %.4f\n",
                res.host.fastest_ms(), res.host.repetitions(), scale);
  } else {
    perfbench::Tracer& tracer = perfbench::Tracer::get();
    const std::vector<perfbench::Span> spans = tracer.collect();
    const perfbench::SpanSummary summary = perfbench::summarize(spans);
    for (const auto& [layer, self] : summary.self_s)
      res.layer[layer + ".self_s"] = self;
    res.layer["spans.count"] = static_cast<double>(summary.spans);
    // Share of the traced wall, set-up and teardown left out, that the
    // program's public calls cover; the harness's own spans do not count.
    const double measured = tracer.recorded_s() - summary.setup_teardown_s;
    res.layer["spans.coverage"] =
        measured > 0 ? summary.program_s / measured : 0.0;
    res.layer["spans.overhead_ms"] =
        (res.traced_wall_s - res.untraced_wall_s) * 1e3;
    res.layer["spans.overhead_share"] =
        res.untraced_wall_s > 0
            ? (res.traced_wall_s - res.untraced_wall_s) / res.untraced_wall_s
            : 0.0;
    const std::string path =
        options.work_dir + "/spans-" + tracer.run_id() + ".jsonl";
    if (!perfbench::write_spans(path, tracer.run_id(), spans))
      std::fprintf(stderr, "gqbench: cannot write %s\n", path.c_str());
    std::printf("traced %s: %zu spans in %s, coverage %.3f of %.3f s "
                "outside set-up and teardown, overhead %.1f ms (%.1f%%) over "
                "%.3f s untraced\n",
                options.workload.c_str(), summary.spans, path.c_str(),
                res.layer["spans.coverage"], measured,
                res.layer["spans.overhead_ms"],
                100.0 * res.layer["spans.overhead_share"],
                res.untraced_wall_s);
    values.assign(res.layer.begin(), res.layer.end());
  }

  const std::uint64_t attempted = std::max<std::uint64_t>(1, res.attempted);
  std::printf("  %-36s %14.6g ratio (%llu failed of %llu attempted)\n",
              "error_rate",
              static_cast<double>(res.failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": " + json_number(value);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}

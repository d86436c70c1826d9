// Measurement plumbing shared by every benchmark workload: clocks and
// rusage, sample percentiles, counter snapshots read from a farm's
// MetricsRegistry, and the span tracer that times calls into the
// program's public API from the outside.
//
// Spans are recorded only in a traced run. Each span carries a name, the
// layer whose public call it wraps, start and end on one steady clock,
// and the id of the span that caused it; all spans of a run share one run
// id. They stay in memory until the run ends and are then written out.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gq::obs {
class MetricsRegistry;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (stores, spans).
  std::string work_dir;
};

/// Steady-clock seconds since process start.
double wall_s();
/// User + system CPU seconds of this process, all threads.
double cpu_s();
/// System CPU seconds of this process, all threads.
double sys_cpu_s();
/// Peak resident set size of this process so far.
double peak_rss_mb();

/// A sample set with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// The samples in the order they were added.
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  /// Nearest-rank q-quantile (0 < q <= 1); 0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

/// Times of a sequence of operations that a run repeats identically:
/// every farm round, and every flow_query pass, is built from the same seed
/// and does the same work in the same order. Each operation's time is the
/// fastest of its repetitions. Outside load on a shared host only ever adds
/// time, and it comes in bursts, so the minimum over repetitions is the
/// figure it moves least, while a code change moves every repetition.
class Repeated {
 public:
  /// Add one repetition's times, in operation order; false when it holds
  /// another number of operations than the first.
  bool add(const std::vector<double>& times);
  [[nodiscard]] std::size_t repetitions() const { return repetitions_; }
  /// The fastest time of each operation.
  [[nodiscard]] const std::vector<double>& fastest() const { return fastest_; }

 private:
  std::vector<double> fastest_;
  std::size_t repetitions_ = 0;
};

/// The host's speed, measured in the run itself: the fastest repetition of
/// a fixed reference kernel that runs no code of the program (a timer queue
/// updating a table of short strings, hashed with FNV-1a: the shape of the
/// event loop). It works in buffers of its own, allocated once, so the
/// program's heap does not change its speed. On a shared
/// host the speed of the same work drifts by 10-40% for minutes at a time,
/// the program's and the kernel's alike, so timed end-to-end metrics are
/// scaled by time_scale() to what they would read on a host that runs the
/// kernel in kReferenceMs. A code change leaves the kernel alone.
class HostSpeed {
 public:
  /// The kernel's time on a calm 4-vCPU x86-64 host.
  static constexpr double kReferenceMs = 2.25;

  HostSpeed();

  /// Run the kernel at least once, and until the time spent in it reaches
  /// 5% of `measured_s`, the run's measured time so far.
  void sample(double measured_s);
  [[nodiscard]] double fastest_ms() const { return fastest_ms_; }
  [[nodiscard]] std::size_t repetitions() const { return repetitions_; }
  /// Multiplies a time measured in this run into one at reference speed.
  [[nodiscard]] double time_scale() const { return kReferenceMs / fastest_ms_; }

 private:
  static constexpr std::size_t kEvents = 256;
  static constexpr std::size_t kSlots = 4096;
  static constexpr std::size_t kSlotBytes = 64;

  /// One repetition of the kernel; its wall ms.
  double kernel_ms();

  std::vector<std::pair<std::uint64_t, std::uint64_t>> queue_;
  std::vector<char> table_;
  double fastest_ms_ = 1e300;
  double spent_s_ = 0.0;
  std::size_t repetitions_ = 0;
};

/// What a workload hands back to main: the raw material for every
/// end-to-end metric, the per-layer metrics of a traced run, and the
/// correctness verdict.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False once any output was wrong (escape, mismatch, divergence).
  bool correct = true;
  Samples setup_s;
  double measured_wall_s = 0.0;
  double measured_cpu_s = 0.0;
  /// Work one repetition (round or pass) completes, in the workload's unit.
  double units_per_repetition = 0.0;
  /// Every timed operation of a repetition, in ms: each run_for step with
  /// the FlowDB flush it triggers, or each query and append.
  Repeated op_ms;
  /// The operations whose latency is reported, in ms: the run_for steps,
  /// or the queries.
  Repeated latency_ms;
  /// Sampled between rounds (passes), outside the measured time.
  HostSpeed host;
  /// Peak RSS once the first measured round (or query pass) is done.
  double peak_rss_mb = 0.0;
  /// Per-layer metrics (traced run only).
  std::map<std::string, double> layer;
  /// Traced run: measured wall of the same work untraced and traced.
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  /// Traced run: rounds (or query passes) measured in each phase.
  int rounds = 0;

  /// Record a wrong output: counted as a failed operation, printed to
  /// stderr, and the run's result becomes incorrect.
  void wrong(const std::string& why);
};

/// One recorded span; times are nanoseconds on the tracer's clock.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: a root span.
  const char* name = "";
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide span recorder. Spans are recorded on the main thread
/// only: traced rounds step every farm inline (one worker thread), and
/// the 2-thread detonate replay runs with recording off.
class Tracer {
 public:
  static Tracer& get();

  /// Name the run every span belongs to (set before the first start()).
  void set_run_id(std::string run_id) { run_id_ = std::move(run_id); }
  /// Open/close a recording window; outside every window a SpanScope
  /// costs one relaxed load (atomic because untraced worker threads read
  /// it too).
  void start();
  void stop();
  [[nodiscard]] bool recording() const {
    return recording_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& run_id() const { return run_id_; }
  /// Wall seconds spent inside recording windows.
  [[nodiscard]] double recorded_s() const {
    return static_cast<double>(recorded_ns_) / 1e9;
  }
  [[nodiscard]] std::int64_t now_ns() const;

  /// Every span recorded so far, in start order.
  [[nodiscard]] std::vector<Span> collect() const;

  // Used by SpanScope.
  std::uint64_t open();
  void close(std::uint64_t id, const char* name, const char* layer,
             std::int64_t start_ns);

 private:
  std::atomic<bool> recording_{false};
  std::uint64_t next_id_ = 1;
  std::string run_id_;
  std::int64_t started_ns_ = 0;
  std::int64_t recorded_ns_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;  ///< Ids of the open spans.
};

/// Times one call into the program. Always measures (the elapsed time
/// feeds end-to-end samples); records a span only while the tracer is
/// recording.
class SpanScope {
 public:
  SpanScope(const char* name, const char* layer);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] double elapsed_ms() const;

 private:
  const char* name_;
  const char* layer_;
  std::uint64_t id_ = 0;
  std::int64_t start_ns_;
};

/// Spans the benchmark itself opens that are not public calls: the
/// harness's own work ("bench") and the farm set-up and teardown around a
/// round, which the coverage figure leaves out.
inline constexpr const char* kBenchLayer = "bench";
inline constexpr const char* kSetupSpan = "setup";
inline constexpr const char* kTeardownSpan = "teardown";

/// Layer self time (span duration minus the part its children cover),
/// coverage and span count, computed over the recorded spans.
struct SpanSummary {
  std::map<std::string, double> self_s;  ///< Layer -> self seconds.
  /// Union of the program's public-call spans (every layer but "bench"),
  /// leaving out those inside set-up and teardown.
  double program_s = 0.0;
  /// Union of the set-up and teardown spans.
  double setup_teardown_s = 0.0;
  std::size_t spans = 0;
};
SpanSummary summarize(const std::vector<Span>& spans);
/// Write spans as JSON lines; false on I/O error.
bool write_spans(const std::string& path, const std::string& run_id,
                 const std::vector<Span>& spans);

/// Instrument values parsed from MetricsRegistry::render_text():
/// counters and gauges by name, histograms as "<name>.count".
using Snapshot = std::map<std::string, double>;
Snapshot snapshot(const gq::obs::MetricsRegistry& metrics);
/// Sum of every instrument whose name starts with `prefix` and ends with
/// `suffix`.
double sum_matching(const Snapshot& snap, std::string_view prefix,
                    std::string_view suffix);

/// FNV-1a 64, for folding deterministic work counts into one hash.
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = 1469598103934665603ull);

/// An independent 64-bit seed for one input stream of a workload
/// (splitmix64 of the run seed and a per-stream salt).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench

// Farm-wide metrics registry (paper §6.5 motivation: operators verify
// containment from continuous measurement — "an unusual number of
// FORWARD verdicts might indicate a bug in the policy"). Components
// resolve named instruments once (at construction) and then update them
// through plain pointers, so the per-frame path pays one integer
// add/compare — no map lookup, no allocation, no formatting.
//
// Three instrument kinds:
//   * Counter   — monotonically increasing u64 (flows created, verdicts).
//   * Gauge     — signed level that moves both ways (active flows,
//                 rewrites in flight).
//   * Histogram — fixed upper-bound buckets plus count/sum, tuned by
//                 default for microsecond latencies (decision latency,
//                 shim round-trip time).
//
// The registry renders either a human-readable text table or a JSON
// document (for scripted consumers of bench/micro_datapath and future
// scrape endpoints).
//
// Everything runs on one thread, so instruments are plain integers and
// doubles: an update is one add, a read is one load.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace gq::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t delta) { value_ += delta; }
  void sub(std::int64_t delta) { value_ -= delta; }
  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Fixed-bucket histogram. Bounds are inclusive upper edges in ascending
/// order; an implicit +inf bucket catches the tail, so bucket_counts()
/// always has upper_bounds().size() + 1 entries.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  [[nodiscard]] const std::vector<double>& upper_bounds() const {
    return upper_bounds_;
  }
  /// Per-bucket counts.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const {
    return buckets_;
  }

  /// Estimate of the q-quantile (0 < q <= 1) assuming a uniform spread
  /// within the winning bucket. Good enough for operator dashboards.
  [[nodiscard]] double quantile(double q) const;

  /// ASCII bucket table with proportional bars, e.g. for the
  /// micro_datapath latency baseline printout.
  [[nodiscard]] std::string render(const std::string& title) const;

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::uint64_t> buckets_;  // upper_bounds_.size() + 1 entries.
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Default bucket edges for microsecond-scale latency histograms:
/// 100us .. 5s in roughly 1-2.5-5 steps.
std::vector<double> default_latency_bounds_us();

/// Name -> instrument registry. Instruments are created on first access
/// and have stable addresses for the lifetime of the registry, so hot
/// paths cache the returned reference. Metric names follow
/// "<component>.<scope>.<metric>", e.g. "gw.Botfarm.decision_latency_us".
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<double> upper_bounds = {});

  /// Lookups without creation (tests, render helpers). nullptr if absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  /// One "name value" line per instrument, sorted by name.
  [[nodiscard]] std::string render_text() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  [[nodiscard]] std::string render_json() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace gq::obs

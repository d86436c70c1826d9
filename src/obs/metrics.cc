#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace gq::obs {

namespace {

// JSON number formatting: integers stay integral, everything else keeps
// enough precision to round-trip typical latency sums.
std::string json_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    return util::format("%lld", static_cast<long long>(v));
  }
  return util::format("%.6g", v);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)) {
  if (upper_bounds_.empty()) upper_bounds_ = default_latency_bounds_us();
  std::sort(upper_bounds_.begin(), upper_bounds_.end());
  buckets_.assign(upper_bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(upper_bounds_.begin(),
                                   upper_bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - upper_bounds_.begin())];
  ++count_;
  sum_ += value;
}

double Histogram::quantile(double q) const {
  const std::vector<std::uint64_t>& buckets = bucket_counts();
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (buckets[i] == 0) continue;
    const double hi = (i < upper_bounds_.size()) ? upper_bounds_[i]
                                                 : upper_bounds_.back();
    const double lo = (i == 0) ? 0.0 : upper_bounds_[i - 1];
    const double below = static_cast<double>(cumulative - buckets[i]);
    const double within =
        (rank - below) / static_cast<double>(buckets[i]);
    return lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
  }
  return upper_bounds_.back();
}

std::string Histogram::render(const std::string& title) const {
  const std::vector<std::uint64_t>& buckets = bucket_counts();
  std::string out = title + "\n";
  out += util::format("  count %llu  mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f\n",
                      static_cast<unsigned long long>(count()), mean(),
                      quantile(0.50), quantile(0.95), quantile(0.99));
  const std::uint64_t peak =
      *std::max_element(buckets.begin(), buckets.end());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    std::string edge =
        (i < upper_bounds_.size())
            ? util::format("<= %10.0f", upper_bounds_[i])
            : std::string("      > last");
    const std::size_t bar =
        peak == 0 ? 0
                  : static_cast<std::size_t>(40.0 *
                                             static_cast<double>(buckets[i]) /
                                             static_cast<double>(peak));
    out += util::format("  %s %8llu %s\n", edge.c_str(),
                        static_cast<unsigned long long>(buckets[i]),
                        std::string(bar, '#').c_str());
  }
  return out;
}

std::vector<double> default_latency_bounds_us() {
  return {100,    250,    500,     1000,    2500,    5000,    10000,
          25000,  50000,  100000,  250000,  500000,  1000000, 2500000,
          5000000};
}

Counter& MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::render_text() const {
  std::string out;
  for (const auto& [name, counter] : counters_) {
    out += util::format("%s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(counter->value()));
  }
  for (const auto& [name, gauge] : gauges_) {
    out += util::format("%s %lld\n", name.c_str(),
                        static_cast<long long>(gauge->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    out += util::format("%s count %llu mean %.1f p95 %.1f\n", name.c_str(),
                        static_cast<unsigned long long>(histogram->count()),
                        histogram->mean(), histogram->quantile(0.95));
  }
  return out;
}

std::string MetricsRegistry::render_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += util::format("%s\"%s\":%llu", first ? "" : ",",
                        json_escape(name).c_str(),
                        static_cast<unsigned long long>(counter->value()));
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += util::format("%s\"%s\":%lld", first ? "" : ",",
                        json_escape(name).c_str(),
                        static_cast<long long>(gauge->value()));
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += util::format(
        "%s\"%s\":{\"count\":%llu,\"sum\":%s,\"buckets\":[", first ? "" : ",",
        json_escape(name).c_str(),
        static_cast<unsigned long long>(histogram->count()),
        json_number(histogram->sum()).c_str());
    const auto& bounds = histogram->upper_bounds();
    const std::vector<std::uint64_t>& buckets = histogram->bucket_counts();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      const std::string le =
          (i < bounds.size()) ? json_number(bounds[i]) : "\"+inf\"";
      out += util::format("%s{\"le\":%s,\"count\":%llu}", i == 0 ? "" : ",",
                          le.c_str(),
                          static_cast<unsigned long long>(buckets[i]));
    }
    out += "]}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace gq::obs

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) / 1e6;
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(Clock::now() - kProcessStart).count();
}

double cpu_s() {
  const rusage ru = self_usage();
  return seconds_of(ru.ru_utime) + seconds_of(ru.ru_stime);
}

double sys_cpu_s() { return seconds_of(self_usage().ru_stime); }

double peak_rss_mb() {
  return static_cast<double>(self_usage().ru_maxrss) / 1024.0;
}

HostSpeed::HostSpeed() : queue_(kEvents), table_(kSlots * kSlotBytes) {}

double HostSpeed::kernel_ms() {
  const double t0 = wall_s();
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto later = std::greater<>();
  for (auto& event : queue_) event = {next() % 1000, next()};
  std::make_heap(queue_.begin(), queue_.end(), later);
  std::uint64_t sink = 0;
  for (int i = 0; i < 20000; ++i) {
    std::pop_heap(queue_.begin(), queue_.end(), later);
    auto& [when, key] = queue_.back();
    char* slot = &table_[(key % kSlots) * kSlotBytes];
    const std::size_t len = 16 + key % 48;
    std::memset(slot, 'a' + static_cast<int>(key % 26), len);
    sink = fnv1a(std::string_view(slot, len), sink);
    when += 1 + next() % 1000;
    key = next();
    std::push_heap(queue_.begin(), queue_.end(), later);
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return (wall_s() - t0) * 1e3;
}

void HostSpeed::sample(double measured_s) {
  constexpr double kShare = 0.05;
  do {
    const double ms = kernel_ms();
    fastest_ms_ = std::min(fastest_ms_, ms);
    spent_s_ += ms / 1e3;
    ++repetitions_;
  } while (spent_s_ < kShare * measured_s);
}

// --- Samples -----------------------------------------------------------

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

bool Repeated::add(const std::vector<double>& times) {
  if (repetitions_ == 0) {
    fastest_ = times;
  } else if (times.size() != fastest_.size()) {
    return false;
  } else {
    for (std::size_t i = 0; i < times.size(); ++i)
      fastest_[i] = std::min(fastest_[i], times[i]);
  }
  ++repetitions_;
  return true;
}

void Result::wrong(const std::string& why) {
  std::fprintf(stderr, "WRONG: %s\n", why.c_str());
  ++failed;
  correct = false;
}

// --- Tracer ------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start() {
  started_ns_ = now_ns();
  recording_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() {
  recording_.store(false, std::memory_order_relaxed);
  recorded_ns_ += now_ns() - started_ns_;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProcessStart)
      .count();
}

std::uint64_t Tracer::open() {
  const std::uint64_t id = next_id_++;
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint64_t id, const char* name, const char* layer,
                   std::int64_t start_ns) {
  stack_.pop_back();
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back();
  spans_.push_back({id, parent, name, layer, start_ns, now_ns()});
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> all = spans_;
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

SpanScope::SpanScope(const char* name, const char* layer)
    : name_(name), layer_(layer) {
  Tracer& tracer = Tracer::get();
  if (tracer.recording()) id_ = tracer.open();
  start_ns_ = tracer.now_ns();
}

SpanScope::~SpanScope() {
  if (id_ != 0) Tracer::get().close(id_, name_, layer_, start_ns_);
}

double SpanScope::elapsed_ms() const {
  return static_cast<double>(Tracer::get().now_ns() - start_ns_) / 1e6;
}

// --- Span analysis -----------------------------------------------------

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

std::int64_t union_length(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (!open || s > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

}  // namespace

SpanSummary summarize(const std::vector<Span>& spans) {
  SpanSummary summary;
  summary.spans = spans.size();
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<Interval>> children(spans.size());
  // Spans come in start order, so a parent is classified before its
  // children: a span is out of the coverage figure when it, or an
  // ancestor, is a set-up or teardown span.
  std::vector<bool> in_setup_teardown(spans.size(), false);
  std::vector<Interval> program;
  std::vector<Interval> setup_teardown;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto parent = index.find(s.parent);
    const bool has_parent = s.parent != 0 && parent != index.end();
    if (has_parent) {
      const Span& p = spans[parent->second];
      children[parent->second].emplace_back(std::max(s.start_ns, p.start_ns),
                                            std::min(s.end_ns, p.end_ns));
      in_setup_teardown[i] = in_setup_teardown[parent->second];
    }
    if (std::string_view(s.name) == kSetupSpan ||
        std::string_view(s.name) == kTeardownSpan) {
      in_setup_teardown[i] = true;
      setup_teardown.emplace_back(s.start_ns, s.end_ns);
    } else if (!in_setup_teardown[i] &&
               std::string_view(s.layer) != kBenchLayer) {
      program.emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t covered = union_length(children[i]);
    const std::int64_t self =
        std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns - covered);
    summary.self_s[spans[i].layer] += static_cast<double>(self) / 1e9;
  }
  summary.program_s = static_cast<double>(union_length(std::move(program))) / 1e9;
  summary.setup_teardown_s =
      static_cast<double>(union_length(std::move(setup_teardown))) / 1e9;
  return summary;
}

bool write_spans(const std::string& path, const std::string& run_id,
                 const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans) {
    out << "{\"run\":\"" << run_id << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
        << "\",\"layer\":\"" << s.layer << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// --- Metrics snapshots -------------------------------------------------

Snapshot snapshot(const gq::obs::MetricsRegistry& metrics) {
  Snapshot snap;
  std::istringstream in(metrics.render_text());
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space == std::string::npos) continue;
    const std::string name = line.substr(0, space);
    const std::string rest = line.substr(space + 1);
    if (rest.rfind("count ", 0) == 0)
      snap[name + ".count"] = std::strtod(rest.c_str() + 6, nullptr);
    else
      snap[name] = std::strtod(rest.c_str(), nullptr);
  }
  return snap;
}

double sum_matching(const Snapshot& snap, std::string_view prefix,
                    std::string_view suffix) {
  double total = 0.0;
  for (auto it = snap.lower_bound(std::string(prefix));
       it != snap.end() && it->first.rfind(prefix, 0) == 0; ++it) {
    const std::string& name = it->first;
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += it->second;
  }
  return total;
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t hash) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

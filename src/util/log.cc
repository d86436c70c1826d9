#include "util/log.h"

#include <cstdio>

namespace gq::util {

namespace {

struct LogState {
  LogLevel level = LogLevel::kWarn;
  Log::Sink sink;
  std::function<TimePoint()> clock;
};

LogState& state() {
  static LogState s;
  return s;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

}  // namespace

void Log::set_level(LogLevel level) { state().level = level; }

LogLevel Log::level() { return state().level; }

void Log::set_sink(Sink sink) { state().sink = std::move(sink); }

void Log::set_clock(std::function<TimePoint()> clock) {
  state().clock = std::move(clock);
}

void Log::write(LogLevel level, std::string_view component,
                std::string message) {
  auto& s = state();
  if (s.sink) {
    s.sink(level, component, message);
    return;
  }
  double t = 0.0;
  if (s.clock) t = static_cast<double>(s.clock().usec) / 1e6;
  std::fprintf(stderr, "[%10.6f] %-5s %.*s: %s\n", t, level_name(level),
               static_cast<int>(component.size()), component.data(),
               message.c_str());
}

}  // namespace gq::util

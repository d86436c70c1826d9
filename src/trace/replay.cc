#include "trace/replay.h"

#include "gateway/gateway.h"
#include "netsim/event_loop.h"

namespace gq::trace {

EventRecorder::EventRecorder(obs::EventBus& bus)
    : bus_(bus), id_(bus.subscribe([this](const obs::FarmEvent& event) {
        lines_.push_back(obs::format_event(event));
      })) {}

EventRecorder::~EventRecorder() { bus_.unsubscribe(id_); }

std::string EventRecorder::joined() const {
  std::string out;
  for (const auto& line : lines_) {
    out += line;
    out += '\n';
  }
  return out;
}

std::size_t schedule_replay(gw::Gateway& gateway,
                            const std::vector<pkt::PcapRecord>& records) {
  auto& loop = gateway.loop();
  std::size_t scheduled = 0;
  for (const auto& record : records) {
    if (record.orig_len != 0 && record.orig_len != record.frame.size())
      continue;  // Snaplen-truncated: the full wire frame is gone.
    loop.schedule_at(record.time,
                     [&gateway, bytes = record.frame]() mutable {
                       gateway.inject_inmate_frame(std::move(bytes));
                     });
    ++scheduled;
  }
  return scheduled;
}

}  // namespace gq::trace

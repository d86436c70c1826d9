#include "netsim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "netsim/port.h"

namespace gq::sim {

std::uint32_t EventLoop::push(util::TimePoint at) {
  if (at < now_) at = now_;
  // The key holds the sequence number in 64 - kSlotBits bits and the
  // slot in kSlotBits: refuse either overflowing rather than misorder.
  if (next_seq_ >> (64 - kSlotBits) != 0)
    throw std::length_error("EventLoop: sequence numbers exhausted");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() == kMaxSlots)
      throw std::length_error("EventLoop: too many events in flight");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].state = SlotState::kLive;
  heap_.push_back(Key{at, next_seq_++ << kSlotBits | slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return slot;
}

EventId EventLoop::schedule_at(util::TimePoint at, std::function<void()> fn) {
  const std::uint32_t slot = push(at);
  slots_[slot].fn = std::move(fn);
  return make_id(slots_[slot].generation, slot);
}

EventId EventLoop::schedule_delivery(util::TimePoint at, Port& to,
                                     Frame frame) {
  const std::uint32_t slot = push(at);
  slots_[slot].to = &to;
  slots_[slot].frame = std::move(frame);
  return make_id(slots_[slot].generation, slot);
}

void EventLoop::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return;
  // A stale generation means the event already ran (or the id was never
  // issued): both are the documented no-op.
  if (slots_[slot].generation != generation_of(id)) return;
  if (slots_[slot].state != SlotState::kLive) return;
  // Tombstone in place; the key is purged when it pops, so the slot
  // table never grows past the high-water mark of in-flight events.
  slots_[slot].state = SlotState::kCancelled;
  --live_;
}

void EventLoop::release_slot(std::uint32_t slot) {
  ++slots_[slot].generation;
  slots_[slot].state = SlotState::kFree;
  slots_[slot].to = nullptr;
  free_slots_.push_back(slot);
}

bool EventLoop::step(util::TimePoint deadline) {
  while (!heap_.empty()) {
    if (heap_.front().at > deadline) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Key key = heap_.back();
    heap_.pop_back();
    // Take the payload out before the slot is retired: the event may
    // schedule into the recycled slot (or grow the table), and a
    // cancelled closure must die after its id has gone stale.
    Slot& slot = slots_[key.slot()];
    const bool cancelled = slot.state == SlotState::kCancelled;
    Port* const to = slot.to;
    Frame frame = std::move(slot.frame);
    std::function<void()> fn;
    fn.swap(slot.fn);
    release_slot(key.slot());
    if (cancelled) continue;
    // The virtual clock is monotone: schedule_at clamps past timestamps
    // to now, so no key can sit behind the clock. Assert in debug
    // builds and clamp defensively in release (NDEBUG) builds — time
    // travelling backwards would silently corrupt every latency
    // measurement and retransmission timer downstream.
    assert(key.at >= now_ && "EventLoop clock must be monotone");
    if (key.at < now_) key.at = now_;
    --live_;
    now_ = key.at;
    ++executed_;
    if (to != nullptr) {
      to->deliver(std::move(frame));
    } else {
      fn();
    }
    return true;
  }
  return false;
}

void EventLoop::run_until(util::TimePoint deadline) {
  while (step(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

EventLoop::~EventLoop() { drop_pending(); }

void EventLoop::drop_pending() {
  // Destroying a pending closure can re-enter cancel() (an object owned
  // by one closure cancelling its own timers in its destructor), so take
  // the keys out and retire every slot before any closure dies: a
  // re-entrant cancel then sees a stale generation and no-ops. The
  // closures then die in heap-array order.
  std::vector<Key> keys;
  keys.swap(heap_);
  std::vector<std::function<void()>> doomed(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    Slot& slot = slots_[keys[i].slot()];
    doomed[i].swap(slot.fn);
    slot.frame = Frame{};
    release_slot(keys[i].slot());
  }
  live_ = 0;
  doomed.clear();
}

void EventLoop::run_all() {
  while (step(util::TimePoint{INT64_MAX})) {
  }
}

}  // namespace gq::sim

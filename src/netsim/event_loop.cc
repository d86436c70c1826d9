#include "netsim/event_loop.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace gq::sim {

EventId EventLoop::schedule_at(util::TimePoint at, std::function<void()> fn) {
  if (at < now_) at = now_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].state = SlotState::kLive;
  const EventId id = make_id(slots_[slot].generation, slot);
  heap_.push_back(Entry{at, next_seq_++, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return id;
}

void EventLoop::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return;
  // A stale generation means the event already ran (or the id was never
  // issued): both are the documented no-op.
  if (slots_[slot].generation != generation_of(id)) return;
  if (slots_[slot].state != SlotState::kLive) return;
  // Tombstone in place; the heap entry is purged when it pops, so the
  // slot table never grows past the high-water mark of in-flight events.
  slots_[slot].state = SlotState::kCancelled;
  --live_;
}

void EventLoop::release_slot(std::uint32_t slot) {
  ++slots_[slot].generation;
  slots_[slot].state = SlotState::kFree;
  free_slots_.push_back(slot);
}

EventLoop::Entry EventLoop::pop_entry() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  return entry;
}

bool EventLoop::step(util::TimePoint deadline) {
  while (!heap_.empty()) {
    if (heap_.front().at > deadline) return false;
    Entry entry = pop_entry();
    const std::uint32_t slot = slot_of(entry.id);
    const bool cancelled = slots_[slot].state == SlotState::kCancelled;
    release_slot(slot);
    if (cancelled) continue;
    // The virtual clock is monotone: schedule_at clamps past timestamps
    // to now, so no heap entry can sit behind the clock. Assert in debug
    // builds and clamp defensively in release (NDEBUG) builds — time
    // travelling backwards would silently corrupt every latency
    // measurement and retransmission timer downstream.
    assert(entry.at >= now_ && "EventLoop clock must be monotone");
    if (entry.at < now_) entry.at = now_;
    --live_;
    now_ = entry.at;
    ++executed_;
    entry.fn();
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
  // by one closure cancelling its own timers in its destructor), so move
  // the heap out and retire every slot before any closure dies: a
  // re-entrant cancel then sees a stale generation and no-ops.
  std::vector<Entry> doomed;
  doomed.swap(heap_);
  for (const Entry& entry : doomed) release_slot(slot_of(entry.id));
  live_ = 0;
  doomed.clear();
}

void EventLoop::run_all() {
  while (step(util::TimePoint{INT64_MAX})) {
  }
}

}  // namespace gq::sim

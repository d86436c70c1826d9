// Deterministic discrete-event scheduler. A whole farm — or every
// subfarm shard of a core::ShardedFarm together — runs off one
// EventLoop with a virtual microsecond clock, so an experiment with a
// 30-minute trigger window completes in milliseconds of wall time and
// replays identically given the same seed: events run in (time,
// schedule order).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace gq::sim {

class Port;

/// One Ethernet frame on the wire.
struct Frame {
  std::vector<std::uint8_t> bytes;
};

/// Handle for cancelling a scheduled event. Encodes (generation, slot):
/// slots are recycled, generations make stale handles harmless.
using EventId = std::uint64_t;

class EventLoop {
 public:
  EventLoop() = default;
  /// Pending closures are destroyed the way drop_pending() destroys
  /// them: every slot is retired first, so a closure-owned object that
  /// cancels its own timers from its destructor finds a harmless stale
  /// id instead of freed bookkeeping.
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  [[nodiscard]] util::TimePoint now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (clamped to now).
  EventId schedule_at(util::TimePoint at, std::function<void()> fn);

  /// Schedule `fn` to run `delay` from now.
  EventId schedule_in(util::Duration delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `frame` to arrive at port `to` at `at` (clamped to now),
  /// as one event ordered with closures by (time, schedule order). The
  /// frame waits in the slot table, so a delivery costs no closure.
  EventId schedule_delivery(util::TimePoint at, Port& to, Frame frame);

  /// Cancel a pending event; cancelling an already-run or unknown id is a
  /// harmless no-op (and is not recorded, so `pending()` stays exact).
  /// The cancelled closure is destroyed when its time is reached, not
  /// here.
  void cancel(EventId id);

  /// Run events until the queue empties or the clock would pass
  /// `deadline`; the clock ends at `deadline`.
  void run_until(util::TimePoint deadline);

  /// Run for `d` of simulated time from now.
  void run_for(util::Duration d) { run_until(now_ + d); }

  /// Drain every pending event regardless of time (tests only; malware
  /// behaviours self-rescheduling forever would never let this return).
  void run_all();

  /// Destroy every pending event without running it. Owners of the loop
  /// call this before tearing down the devices the closures reference: a
  /// pending closure can hold the last reference to an object (e.g. a
  /// TCP retransmit timer owning its connection) whose destructor touches
  /// a device, so those closures must die while the devices still exist.
  void drop_pending();

  /// Number of events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending (scheduled, not yet run or
  /// cancelled).
  [[nodiscard]] std::size_t pending() const { return live_; }

 private:
  // The heap orders plain 16-byte keys; each event's payload stays put
  // in its slot, so a sift moves no closure. A key packs the schedule
  // sequence number (the FIFO tie-break for equal times) into the high
  // bits of one word and the slot into the low kSlotBits; sequence
  // numbers are unique, so comparing the word compares them. push()
  // refuses a slot or a sequence number that would not fit.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  struct Key {
    util::TimePoint at;
    std::uint64_t seq_slot;
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & (kMaxSlots - 1));
    }
  };
  static_assert(sizeof(Key) == 16);
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq_slot > b.seq_slot;
    }
  };

  // One slot per event in flight, recycled through free_slots_. Schedule,
  // cancel and pop each pay O(1) array accesses; the generation makes a
  // recycled slot's old EventId stale.
  enum class SlotState : std::uint8_t { kFree, kLive, kCancelled };
  struct Slot {
    // Generations start at 1 so EventId 0 is never issued: callers use 0
    // as a "no event" sentinel and cancel(0) must stay a no-op.
    std::uint32_t generation = 1;
    SlotState state = SlotState::kFree;
    // The payload: a frame delivery when `to` is set, else `fn`.
    Port* to = nullptr;
    Frame frame;
    std::function<void()> fn;
  };

  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static constexpr std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static constexpr EventId make_id(std::uint32_t generation,
                                   std::uint32_t slot) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }

  /// Claim a live slot and push its key for `at` (clamped to now). The
  /// caller fills in the slot's payload. Throws std::length_error past
  /// kMaxSlots events in flight or 2^40 events scheduled.
  std::uint32_t push(util::TimePoint at);
  bool step(util::TimePoint deadline);
  /// Return a popped key's slot to the free list, bumping the generation
  /// so any still-held EventId for it goes stale. The payload must
  /// already have been taken out.
  void release_slot(std::uint32_t slot);

  util::TimePoint now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;  // Scheduled and not yet run or cancelled.
  // Min-heap of keys managed with push_heap/pop_heap.
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace gq::sim

// Conservative-lookahead lockstep execution of multiple event-loop
// domains (GQ subfarm shards) on the calling thread. Each domain runs
// its own sim::EventLoop. The only communication between domains is
// Ethernet frames crossing bridged Ports, which travel through per-link
// bounded mailboxes and are delivered at epoch barriers.
//
// Determinism argument (DESIGN.md §12): every cross-domain link has a
// fixed propagation latency L_i, and the coordinator advances all
// domains in lockstep epochs of length E = min_i(L_i). A frame
// transmitted at time t inside epoch [T, T+E) is timestamped
// deliver_at = t + delay with delay >= L_i >= E, hence
// deliver_at >= T + E — never inside the current epoch. Draining
// mailboxes only at the barrier therefore loses nothing, and drained
// frames are scheduled in the canonical order (deliver_at, link id,
// per-link production seq), so no domain can observe the order in
// which the others ran inside an epoch.
// An epoch in which no domain has an event due runs nothing and drains
// empty mailboxes, so the coordinator steps the clocks over such
// epochs without a barrier; the epoch grid itself never moves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "netsim/event_loop.h"
#include "netsim/port.h"
#include "util/time.h"

namespace gq::sim {

/// A frame in flight between domains, stamped with its absolute
/// delivery time on the destination loop.
struct TimedFrame {
  util::TimePoint deliver_at;
  Frame frame;
};

/// Bounded frame buffer for one direction of one cross-domain link:
/// filled while the source domain runs, emptied at the epoch barrier.
/// Overflow drops depend only on the per-link production order.
class Mailbox {
 public:
  explicit Mailbox(std::size_t capacity) : capacity_(capacity) {}

  /// False (and the frame is dropped) when the mailbox is full.
  bool push(TimedFrame tf) {
    if (buf_.size() >= capacity_) {
      ++overflow_dropped_;
      return false;
    }
    buf_.push_back(std::move(tf));
    return true;
  }

  std::vector<TimedFrame> take() {
    std::vector<TimedFrame> out;
    out.swap(buf_);
    return out;
  }

  [[nodiscard]] std::uint64_t overflow_dropped() const {
    return overflow_dropped_;
  }

 private:
  std::size_t capacity_;
  std::vector<TimedFrame> buf_;
  std::uint64_t overflow_dropped_ = 0;
};

struct LockstepStats {
  std::uint64_t epochs = 0;            // Barriers crossed.
  std::uint64_t epochs_skipped = 0;    // Idle epochs stepped over.
  std::uint64_t messages = 0;          // Frames delivered across domains.
  std::uint64_t overflow_dropped = 0;  // Frames lost to full mailboxes.
  std::uint64_t events = 0;            // Loop events run inside epochs.
  // Sum over barriers of the largest per-domain event count in that
  // epoch: the events that running domains side by side could not
  // overlap. events divided by this is the speedup ceiling of one
  // thread per domain.
  std::uint64_t critical_path_events = 0;
};

/// Advances a set of EventLoop domains in deterministic lockstep
/// epochs. In each epoch every domain runs up to the epoch's end, one
/// after another in domain order.
class LockstepCoordinator {
 public:
  LockstepCoordinator() = default;
  ~LockstepCoordinator();

  LockstepCoordinator(const LockstepCoordinator&) = delete;
  LockstepCoordinator& operator=(const LockstepCoordinator&) = delete;

  /// Register a domain's loop. All domains must be added, and all
  /// bridges installed, before the first run_*() call.
  std::size_t add_domain(EventLoop& loop);

  /// Bridge two ports in different domains with a full-duplex link of
  /// the given one-way latency. The latency must be > 0: it bounds the
  /// epoch length (lookahead), and the coordinator asserts that the
  /// minimum across links stays positive.
  void bridge(std::size_t domain_a, Port& a, std::size_t domain_b, Port& b,
              util::Duration latency);

  /// Advance every domain to `deadline` in lockstep epochs.
  void run_until(util::TimePoint deadline);

  /// Advance every domain by `d` from the current lockstep time.
  void run_for(util::Duration d) { run_until(now_ + d); }

  [[nodiscard]] util::TimePoint now() const { return now_; }
  [[nodiscard]] LockstepStats stats() const;

 private:
  struct Link {
    Port* dst_port;
    Mailbox box;
  };

  /// The earliest next_at() across domains.
  util::TimePoint next_due() const;
  void skip_idle_epochs(util::TimePoint due, util::TimePoint deadline);
  void run_epoch(util::TimePoint epoch_end);
  void drain_mailboxes(util::TimePoint epoch_end);

  std::vector<EventLoop*> domains_;
  // deque-like stability is required: BridgeTx closures capture Link
  // pointers, so links are held by unique_ptr.
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Port*> bridged_ports_;
  util::TimePoint now_{};
  util::Duration epoch_{};  // min cross-domain link latency
  LockstepStats stats_;
  bool started_ = false;
};

}  // namespace gq::sim

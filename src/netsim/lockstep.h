// Conservative-lookahead lockstep execution of multiple event-loop
// domains (GQ subfarm shards). Each domain runs its own sim::EventLoop,
// and within an epoch exactly one thread runs it: the calling thread,
// or a worker of a small pool that claimed it. The only communication
// between domains is Ethernet frames crossing bridged Ports, which
// travel through per-link bounded mailboxes and are delivered at epoch
// barriers.
//
// Determinism argument (DESIGN.md §12): every cross-domain link has a
// fixed propagation latency L_i, and the coordinator advances all
// domains in lockstep epochs of length E = min_i(L_i). A frame
// transmitted at time t inside epoch [T, T+E) is timestamped
// deliver_at = t + delay with delay >= L_i >= E, hence
// deliver_at >= T + E — never inside the current epoch. Draining
// mailboxes only at the barrier therefore loses nothing, and because
// drained frames are scheduled in the canonical order
// (deliver_at, link id, per-link production seq) by one thread while
// every worker is quiescent, the destination loop's heap — and thus the
// whole run — is bit-identical for any worker-thread count, including 1.
// An epoch in which no domain has an event due runs nothing and drains
// empty mailboxes, so the coordinator steps the clocks over such
// epochs without a barrier; the epoch grid itself never moves.
//
// Memory ordering: mailboxes are SPSC with no atomics. The producer is
// the single thread running the source domain during an epoch; the
// consumer is the coordinator thread at the barrier. The barrier is two
// seq_cst atomics: the coordinator's store that publishes an epoch
// happens-before every successful claim of one of its domains, and each
// claimer's increment of the done count happens-before the
// coordinator's load that sees the count complete. That orders every
// push against every drain, which is what makes the plain std::vector
// storage race-free — the tsan lane exists to keep this honest. A
// waiter spins on those atomics for a bounded wall time and then parks
// on a condvar; the condvar only saves CPU and carries no data.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
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

/// Bounded SPSC frame buffer for one direction of one cross-domain
/// link. push() runs on the producing domain's thread, take()
/// on the coordinator thread at an epoch barrier; the barrier provides
/// the ordering (see file comment). Overflow drops are deterministic:
/// they depend only on the per-link production order, never on thread
/// interleaving.
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
  // epoch: the events no thread count can overlap. events divided by
  // this is the speedup ceiling with one thread per domain.
  std::uint64_t critical_path_events = 0;
};

/// Advances a set of EventLoop domains in deterministic lockstep
/// epochs. With threads == 1 (or one domain) everything runs inline on
/// the calling thread — no std::thread is created — and produces the
/// exact same event order as any parallel configuration. With more,
/// an epoch with two or more domains due is shared: the calling thread
/// and up to threads - 1 workers claim its domains one at a time, and
/// the calling thread never waits for a worker that has not claimed
/// one. Workers spin between epochs of one run_until() call and park
/// between calls.
class LockstepCoordinator {
 public:
  /// `threads` caps the worker pool (clamped to the domain count);
  /// `mailbox_capacity` bounds each link direction's per-epoch backlog.
  explicit LockstepCoordinator(unsigned threads = 1,
                               std::size_t mailbox_capacity = 65536);
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
  [[nodiscard]] util::Duration epoch_length() const { return epoch_; }
  [[nodiscard]] unsigned threads() const { return threads_; }
  [[nodiscard]] LockstepStats stats() const;

 private:
  struct Link {
    std::size_t src_domain;
    std::size_t dst_domain;
    Port* dst_port;
    Mailbox box;
  };

  /// One-way wake-up channel: a waiter spins on its predicate for a
  /// bounded wall time, then parks; wake() notifies only parked waiters.
  class Rendezvous {
   public:
    template <class Ready, class KeepSpinning>
    void wait(Ready ready, KeepSpinning keep_spinning);
    /// Call after a seq_cst store that makes the waiters' predicate true.
    void wake();

   private:
    std::mutex mu_;
    std::condition_variable cv_;
    std::atomic<unsigned> parked_{0};
  };

  /// Collects the domains with an entry due by `epoch_end` and returns
  /// the earliest next_at() across domains.
  util::TimePoint collect_due(util::TimePoint epoch_end);
  void skip_idle_epochs(util::TimePoint due, util::TimePoint deadline);
  void run_epoch(util::TimePoint epoch_end);
  void advance_domains(util::TimePoint epoch_end);
  /// Claims and runs due domains of epoch `gen` until none is left.
  void run_claims(std::uint32_t gen);
  void drain_mailboxes(util::TimePoint epoch_end);
  void start_workers();
  void worker_main();

  std::vector<EventLoop*> domains_;
  // deque-like stability is required: BridgeTx closures capture Link
  // pointers, so links are held by unique_ptr.
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Port*> bridged_ports_;
  std::size_t mailbox_capacity_;
  util::TimePoint now_{};
  util::Duration epoch_{};  // min cross-domain link latency
  LockstepStats stats_;
  std::vector<std::uint64_t> executed_before_;  // Per domain, epoch start.
  bool started_ = false;

  // Worker pool (empty in serial mode). An epoch with two or more
  // domains due is published in claim_ as (generation << 32 | due
  // count << 16 | next unclaimed index); the calling thread and any
  // spinning worker claim domains from due_ until none is left.
  unsigned threads_;
  std::vector<std::thread> workers_;
  std::vector<std::uint32_t> due_;  // Published by the claim_ store.
  util::TimePoint epoch_deadline_{};  // Likewise.
  std::uint32_t gen_ = 0;
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  alignas(64) std::atomic<std::uint32_t> done_count_{0};
  Rendezvous idle_;  // Workers wait here for an epoch to share.
  Rendezvous done_;  // The calling thread waits here for claimed domains.
  std::atomic<bool> running_{false};  // Inside run_until(): workers spin.
  std::atomic<bool> shutdown_{false};
};

}  // namespace gq::sim

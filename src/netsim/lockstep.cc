#include "netsim/lockstep.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

namespace gq::sim {

namespace {

// How long a waiter spins before it parks. On a virtualised host a
// parked thread's wake-up can cost more than a busy epoch, so the spin
// covers the gap between two busy epochs of one run_until().
constexpr auto kSpinBudget = std::chrono::milliseconds(2);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

template <class Ready, class KeepSpinning>
void LockstepCoordinator::Rendezvous::wait(Ready ready,
                                           KeepSpinning keep_spinning) {
  const auto give_up = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1; keep_spinning(); ++i) {
    if (ready()) return;
    cpu_relax();
    if (i % 64 == 0) {
      if (std::chrono::steady_clock::now() >= give_up) break;
      // The scheduler tends to queue a thread we just woke on our own
      // core; without a yield it would wait out the whole spin.
      std::this_thread::yield();
    }
  }
  parked_.fetch_add(1);
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, ready);
  }
  parked_.fetch_sub(1);
}

void LockstepCoordinator::Rendezvous::wake() {
  // Dekker pairing with wait(): the caller's seq_cst store precedes this
  // seq_cst load, and a waiter's seq_cst increment precedes its re-check
  // of the predicate under mu_. So either that re-check sees the store,
  // or this load sees the waiter and the notify (taken under mu_, so it
  // cannot fall between the re-check and the sleep) wakes it.
  if (parked_.load() == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  cv_.notify_all();
}

LockstepCoordinator::LockstepCoordinator(unsigned threads,
                                         std::size_t mailbox_capacity)
    : mailbox_capacity_(mailbox_capacity),
      threads_(threads == 0 ? 1 : threads) {}

LockstepCoordinator::~LockstepCoordinator() {
  shutdown_.store(true);
  idle_.wake();
  for (std::thread& w : workers_) w.join();
  // Bridge closures capture Link pointers owned by this coordinator;
  // detach them so a port outliving the coordinator cannot call into
  // freed state.
  for (Port* port : bridged_ports_) port->clear_bridge();
}

std::size_t LockstepCoordinator::add_domain(EventLoop& loop) {
  assert(!started_ && "add_domain after the first run_*() call");
  domains_.push_back(&loop);
  return domains_.size() - 1;
}

void LockstepCoordinator::bridge(std::size_t domain_a, Port& a,
                                 std::size_t domain_b, Port& b,
                                 util::Duration latency) {
  assert(!started_ && "bridge after the first run_*() call");
  assert(domain_a != domain_b && "bridge() is for cross-domain links");
  assert(latency.usec > 0 && "cross-domain latency bounds the lookahead");
  if (epoch_.usec == 0 || latency < epoch_) epoch_ = latency;

  auto install = [this](std::size_t src, std::size_t dst, Port& src_port,
                        Port& dst_port, util::Duration lat) {
    links_.push_back(std::make_unique<Link>(
        Link{src, dst, &dst_port, Mailbox{mailbox_capacity_}}));
    Link* link = links_.back().get();
    EventLoop* src_loop = domains_[src];
    // Runs on the thread running `src` during an epoch: stamp the
    // absolute delivery time from the source clock and park the frame
    // until the barrier.
    src_port.set_bridge(
        [link, src_loop](util::Duration delay, Frame frame) {
          link->box.push(TimedFrame{src_loop->now() + delay,
                                    std::move(frame)});
        },
        lat);
    bridged_ports_.push_back(&src_port);
  };
  install(domain_a, domain_b, a, b, latency);
  install(domain_b, domain_a, b, a, latency);
}

void LockstepCoordinator::start_workers() {
  started_ = true;
  now_ = util::TimePoint{};
  for (EventLoop* loop : domains_) now_ = std::max(now_, loop->now());
  executed_before_.resize(domains_.size());
  assert(domains_.size() <= 0xFFFF && "claim_ packs 16-bit indices");
  threads_ = std::min<unsigned>(
      threads_, static_cast<unsigned>(std::max<std::size_t>(domains_.size(), 1)));
  for (unsigned w = 1; w < threads_; ++w) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void LockstepCoordinator::run_claims(std::uint32_t gen) {
  std::uint64_t word = claim_.load();
  for (;;) {
    if (static_cast<std::uint32_t>(word >> 32) != gen) return;
    const std::uint32_t count = (word >> 16) & 0xFFFF;
    const std::uint32_t next = word & 0xFFFF;
    if (next >= count) return;
    // A successful claim reads the store that published epoch `gen`, so
    // due_ and epoch_deadline_ are that epoch's; the calling thread
    // rewrites them only after every claimed domain is done.
    if (!claim_.compare_exchange_weak(word, word + 1)) continue;
    domains_[due_[next]]->run_until(epoch_deadline_);
    if (done_count_.fetch_add(1) + 1 == count) done_.wake();
    word = claim_.load();
  }
}

void LockstepCoordinator::worker_main() {
  std::uint32_t seen = 0;
  for (;;) {
    idle_.wait(
        [&] {
          return shutdown_.load() ||
                 static_cast<std::uint32_t>(claim_.load() >> 32) != seen;
        },
        [&] { return running_.load(std::memory_order_relaxed); });
    if (shutdown_.load()) return;
    seen = static_cast<std::uint32_t>(claim_.load() >> 32);
    run_claims(seen);
  }
}

void LockstepCoordinator::advance_domains(util::TimePoint epoch_end) {
  // A lone due domain runs here: another thread could only add a
  // hand-off. Two or more are shared with whichever workers are
  // spinning; the calling thread claims domains too, so an epoch never
  // waits for a worker that has not started on it.
  if (workers_.empty() || due_.size() < 2) {
    for (std::uint32_t d : due_) domains_[d]->run_until(epoch_end);
    return;
  }
  const auto count = static_cast<std::uint32_t>(due_.size());
  epoch_deadline_ = epoch_end;
  done_count_.store(0, std::memory_order_relaxed);
  ++gen_;
  claim_.store(static_cast<std::uint64_t>(gen_) << 32 |
               static_cast<std::uint64_t>(count) << 16);
  idle_.wake();
  run_claims(gen_);
  done_.wait([&] { return done_count_.load() == count; },
             [] { return true; });
}

void LockstepCoordinator::drain_mailboxes(util::TimePoint epoch_end) {
  // Canonical delivery order: (deliver_at, link id, per-link production
  // seq). Iterating links in creation order and stable-sorting on
  // deliver_at alone yields exactly that, independent of which thread
  // ran which domain.
  struct Pending {
    TimedFrame tf;
    Port* dst_port;
  };
  std::vector<Pending> pending;
  for (auto& link : links_) {
    std::vector<TimedFrame> frames = link->box.take();
    for (TimedFrame& tf : frames) {
      pending.push_back(Pending{std::move(tf), link->dst_port});
    }
  }
  if (pending.empty()) return;
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& x, const Pending& y) {
                     return x.tf.deliver_at < y.tf.deliver_at;
                   });
  stats_.messages += pending.size();
  for (Pending& p : pending) {
    // The lookahead rule guarantees deliver_at >= epoch_end; the
    // destination clock sits exactly at epoch_end, so schedule_at never
    // clamps. (void)epoch_end in release builds.
    assert(p.tf.deliver_at >= epoch_end);
    (void)epoch_end;
    p.dst_port->schedule_bridged(p.tf.deliver_at, std::move(p.tf.frame));
  }
}

util::TimePoint LockstepCoordinator::collect_due(
    util::TimePoint epoch_end) {
  due_.clear();
  util::TimePoint due{INT64_MAX};
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    const util::TimePoint at = domains_[d]->next_at();
    due = std::min(due, at);
    if (at <= epoch_end) due_.push_back(static_cast<std::uint32_t>(d));
  }
  return due;
}

void LockstepCoordinator::skip_idle_epochs(util::TimePoint due,
                                           util::TimePoint deadline) {
  // No domain has an event due before `due`, and every mailbox is empty
  // after a drain, so each epoch that ends before `due` would run
  // nothing. Step the clocks over those whole epochs instead: the grid
  // stays where it was, and the epoch that holds `due` runs as before.
  util::TimePoint to = deadline;
  std::int64_t skipped = 1;
  if (!links_.empty()) {
    if (due <= deadline) {
      skipped = (due.usec - now_.usec - 1) / epoch_.usec;
      to = util::TimePoint{now_.usec + skipped * epoch_.usec};
    } else {
      skipped = (deadline.usec - now_.usec + epoch_.usec - 1) / epoch_.usec;
    }
  }
  for (EventLoop* loop : domains_) loop->run_until(to);
  now_ = to;
  stats_.epochs_skipped += static_cast<std::uint64_t>(skipped);
}

void LockstepCoordinator::run_epoch(util::TimePoint epoch_end) {
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    executed_before_[d] = domains_[d]->events_executed();
  }
  advance_domains(epoch_end);
  // Domains with nothing due only move their clocks.
  for (EventLoop* loop : domains_) loop->run_until(epoch_end);
  std::uint64_t widest = 0;
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    const std::uint64_t ran =
        domains_[d]->events_executed() - executed_before_[d];
    stats_.events += ran;
    widest = std::max(widest, ran);
  }
  stats_.critical_path_events += widest;
  drain_mailboxes(epoch_end);
  now_ = epoch_end;
  ++stats_.epochs;
}

void LockstepCoordinator::run_until(util::TimePoint deadline) {
  if (!started_) start_workers();
  assert((links_.empty() || epoch_.usec > 0) && "epoch needs a latency");
  running_.store(true, std::memory_order_relaxed);
  while (now_ < deadline) {
    util::TimePoint epoch_end = deadline;
    if (!links_.empty() && now_ + epoch_ < deadline) {
      epoch_end = now_ + epoch_;
    }
    const util::TimePoint due = collect_due(epoch_end);
    if (due > epoch_end) {
      skip_idle_epochs(due, deadline);
    } else {
      run_epoch(epoch_end);
    }
  }
  running_.store(false, std::memory_order_relaxed);
}

LockstepStats LockstepCoordinator::stats() const {
  LockstepStats out = stats_;
  for (const auto& link : links_) {
    out.overflow_dropped += link->box.overflow_dropped();
  }
  return out;
}

}  // namespace gq::sim

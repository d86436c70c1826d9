#include "netsim/lockstep.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace gq::sim {

namespace {
// Bound on each link direction's per-epoch backlog.
constexpr std::size_t kMailboxCapacity = 65536;
}  // namespace

LockstepCoordinator::~LockstepCoordinator() {
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

  auto install = [this](std::size_t src, Port& src_port, Port& dst_port,
                        util::Duration lat) {
    links_.push_back(std::make_unique<Link>(
        Link{&dst_port, Mailbox{kMailboxCapacity}}));
    Link* link = links_.back().get();
    EventLoop* src_loop = domains_[src];
    // Runs while `src` runs its epoch: stamp the absolute delivery
    // time from the source clock and park the frame until the barrier.
    src_port.set_bridge(
        [link, src_loop](util::Duration delay, Frame frame) {
          link->box.push(TimedFrame{src_loop->now() + delay,
                                    std::move(frame)});
        },
        lat);
    bridged_ports_.push_back(&src_port);
  };
  install(domain_a, a, b, latency);
  install(domain_b, b, a, latency);
}

void LockstepCoordinator::drain_mailboxes(util::TimePoint epoch_end) {
  // Canonical delivery order: (deliver_at, link id, per-link production
  // seq). Iterating links in creation order and stable-sorting on
  // deliver_at alone yields exactly that, independent of the order in
  // which the domains ran.
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

util::TimePoint LockstepCoordinator::next_due() const {
  util::TimePoint due{INT64_MAX};
  for (const EventLoop* loop : domains_) due = std::min(due, loop->next_at());
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
  // Domains with nothing due only move their clocks.
  std::uint64_t widest = 0;
  for (EventLoop* loop : domains_) {
    const std::uint64_t before = loop->events_executed();
    loop->run_until(epoch_end);
    const std::uint64_t ran = loop->events_executed() - before;
    stats_.events += ran;
    widest = std::max(widest, ran);
  }
  stats_.critical_path_events += widest;
  drain_mailboxes(epoch_end);
  now_ = epoch_end;
  ++stats_.epochs;
}

void LockstepCoordinator::run_until(util::TimePoint deadline) {
  if (!started_) {
    started_ = true;
    for (const EventLoop* loop : domains_) now_ = std::max(now_, loop->now());
  }
  assert((links_.empty() || epoch_.usec > 0) && "epoch needs a latency");
  while (now_ < deadline) {
    util::TimePoint epoch_end = deadline;
    if (!links_.empty() && now_ + epoch_ < deadline) {
      epoch_end = now_ + epoch_;
    }
    const util::TimePoint due = next_due();
    if (due > epoch_end) {
      skip_idle_epochs(due, deadline);
    } else {
      run_epoch(epoch_end);
    }
  }
}

LockstepStats LockstepCoordinator::stats() const {
  LockstepStats out = stats_;
  for (const auto& link : links_) {
    out.overflow_dropped += link->box.overflow_dropped();
  }
  return out;
}

}  // namespace gq::sim

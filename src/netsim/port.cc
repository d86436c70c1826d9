#include "netsim/port.h"

#include "obs/metrics.h"

namespace gq::sim {

namespace {
void bump(obs::Counter* ctr) {
  if (ctr != nullptr) ctr->inc();
}
}  // namespace

void Port::connect(Port& a, Port& b, util::Duration latency) {
  a.peer_ = &b;
  b.peer_ = &a;
  a.latency_ = latency;
  b.latency_ = latency;
}

void Port::set_bridge(BridgeTx tx, util::Duration latency) {
  peer_ = nullptr;
  bridge_ = std::move(tx);
  latency_ = latency;
}

void Port::clear_bridge() { bridge_ = nullptr; }

void Port::set_fault_profile(const FaultProfile& profile,
                             std::uint64_t seed) {
  faults_ = profile;
  fault_rng_.reseed(seed);
}

void Port::set_loss(double probability, std::uint64_t seed) {
  FaultProfile profile;
  profile.drop_probability = probability;
  set_fault_profile(profile, seed);
}

void Port::bind_fault_metrics(obs::MetricsRegistry& metrics,
                              const std::string& prefix) {
  dropped_ctr_ = &metrics.counter(prefix + "dropped");
  flap_dropped_ctr_ = &metrics.counter(prefix + "flap_dropped");
  duplicated_ctr_ = &metrics.counter(prefix + "duplicated");
  reordered_ctr_ = &metrics.counter(prefix + "reordered");
}

void Port::schedule_delivery(Frame frame, util::Duration delay) {
  loop_.schedule_delivery(loop_.now() + delay, *peer_, std::move(frame));
}

void Port::schedule_bridged(util::TimePoint at, Frame frame) {
  loop_.schedule_delivery(at, *this, std::move(frame));
}

void Port::dispatch(Frame frame, util::Duration delay) {
  if (bridge_) {
    bridge_(delay, std::move(frame));
    return;
  }
  schedule_delivery(std::move(frame), delay);
}

void Port::transmit(Frame frame) {
  ++tx_frames_;
  if (!connected()) {
    ++dropped_;
    return;
  }
  util::Duration delay = latency_;
  if (faults_.enabled()) {
    // Fixed decision order (flap, drop, jitter, reorder, duplicate) so
    // the Rng stream — and therefore the whole run — is reproducible.
    if (faults_.link_down_at(loop_.now())) {
      ++dropped_;
      ++fault_counters_.flap_dropped;
      bump(flap_dropped_ctr_);
      return;
    }
    if (faults_.drop_probability > 0.0 &&
        fault_rng_.chance(faults_.drop_probability)) {
      ++dropped_;
      ++fault_counters_.dropped;
      bump(dropped_ctr_);
      return;
    }
    if (faults_.jitter_max.usec > 0) {
      const auto jitter = static_cast<std::int64_t>(
          fault_rng_.below(static_cast<std::uint64_t>(faults_.jitter_max.usec) + 1));
      if (jitter > 0) ++fault_counters_.jittered;
      delay = delay + util::microseconds(jitter);
    }
    if (faults_.reorder_probability > 0.0 &&
        fault_rng_.chance(faults_.reorder_probability) &&
        faults_.reorder_window.usec > 0) {
      // Hold the frame back so frames sent after it can overtake.
      delay = delay +
              util::microseconds(1 + static_cast<std::int64_t>(fault_rng_.below(
                                         static_cast<std::uint64_t>(
                                             faults_.reorder_window.usec))));
      ++fault_counters_.reordered;
      bump(reordered_ctr_);
    }
    if (faults_.duplicate_probability > 0.0 &&
        fault_rng_.chance(faults_.duplicate_probability)) {
      ++fault_counters_.duplicated;
      bump(duplicated_ctr_);
      dispatch(Frame{frame.bytes}, delay);
    }
  }
  dispatch(std::move(frame), delay);
}

void Port::deliver(Frame frame) {
  ++rx_frames_;
  if (rx_) rx_(std::move(frame));
}

}  // namespace gq::sim

// Link-layer plumbing of the simulator: a Port is one end of a
// point-to-point cable; connecting two ports creates a full-duplex link
// with a fixed propagation latency. Frames are raw Ethernet bytes —
// the switch and the gateway both operate on the real wire encoding.
// Each port's transmit side can carry a FaultProfile (drops, dupes,
// reordering, jitter, flaps), so impairments are per link AND per
// direction, each with its own deterministic Rng stream. Both ends of a
// cable run on one loop; ShardedFarm's chain links between shards are
// ordinary cables on the loop its shards share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "netsim/event_loop.h"
#include "netsim/fault.h"
#include "util/rng.h"

namespace gq::obs {
class Counter;
class MetricsRegistry;
}  // namespace gq::obs

namespace gq::sim {

/// One end of a point-to-point link. Owned by the device it belongs to
/// (switch, host NIC, gateway interface); devices must outlive the loop's
/// pending events, which holds in practice because the farm (or the
/// ShardedFarm) owns everything and drops the loop's pending events
/// before teardown.
class Port {
 public:
  using RxHandler = std::function<void(Frame)>;

  Port(EventLoop& loop, std::string name)
      : loop_(loop), name_(std::move(name)) {}

  Port(const Port&) = delete;
  Port& operator=(const Port&) = delete;

  /// Install the receive handler invoked for each frame arriving here.
  void set_rx(RxHandler handler) { rx_ = std::move(handler); }

  /// Wire two ports together with the given one-way latency.
  static void connect(Port& a, Port& b, util::Duration latency);

  /// Queue a frame for delivery to the peer after the link latency.
  /// Frames transmitted on an unconnected port are counted and dropped.
  void transmit(Frame frame);

  /// Install a fault profile on this port's transmit side with its own
  /// Rng seed (independent streams per direction). An all-defaults
  /// profile disables injection.
  void set_fault_profile(const FaultProfile& profile, std::uint64_t seed);

  /// Remove any fault profile (the counters are kept).
  void clear_faults() { faults_ = FaultProfile{}; }

  /// Inject random frame loss on this port's transmit side (tests of
  /// retransmission behaviour). Probability 0 disables (the default).
  /// Convenience wrapper over set_fault_profile with only drops set.
  void set_loss(double probability, std::uint64_t seed);

  /// Mirror this port's fault counters into a metrics registry as
  /// "<prefix>dropped" / "flap_dropped" / "duplicated" / "reordered".
  void bind_fault_metrics(obs::MetricsRegistry& metrics,
                          const std::string& prefix);

  [[nodiscard]] bool connected() const { return peer_ != nullptr; }
  [[nodiscard]] Port* peer() const { return peer_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const FaultProfile& fault_profile() const { return faults_; }
  [[nodiscard]] const FaultCounters& fault_counters() const {
    return fault_counters_;
  }
  [[nodiscard]] std::uint64_t tx_frames() const { return tx_frames_; }
  [[nodiscard]] std::uint64_t rx_frames() const { return rx_frames_; }
  [[nodiscard]] std::uint64_t dropped_frames() const { return dropped_; }

 private:
  // The loop hands scheduled frames to deliver().
  friend class EventLoop;

  void deliver(Frame frame);
  void schedule_delivery(Frame frame, util::Duration delay);

  EventLoop& loop_;
  std::string name_;
  Port* peer_ = nullptr;
  util::Duration latency_{};
  RxHandler rx_;
  FaultProfile faults_;
  util::Rng fault_rng_{0};
  FaultCounters fault_counters_;
  // Optional mirrors into an obs::MetricsRegistry (not owned).
  obs::Counter* dropped_ctr_ = nullptr;
  obs::Counter* flap_dropped_ctr_ = nullptr;
  obs::Counter* duplicated_ctr_ = nullptr;
  obs::Counter* reordered_ctr_ = nullptr;
  std::uint64_t tx_frames_ = 0;
  std::uint64_t rx_frames_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace gq::sim

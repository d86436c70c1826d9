// Deterministic replay driver: feed an archived inmate-side trace back
// through a freshly constructed farm and check that what the farm *does*
// — its verdict event sequence and its upstream egress — is bit-identical
// to the original recording. The whole simulator is deterministic (one
// virtual clock, seeded RNGs, FIFO tie-break for same-time events), so a
// farm built with the same seed and the same policy configuration,
// driven by the same inmate-port frames at the same virtual times, must
// retrace the recording exactly. Any divergence is a regression in the
// datapath, the verdict machinery, or determinism itself — which makes a
// saved golden archive a whole-system regression oracle (wired into
// ctest as trace_smoke / the TraceReplay gtest suite).
//
// Replay contract:
//   * The recording farm captures raw 802.1Q-tagged inmate-port ingress
//     in the gateway's "inmate_rx" tap (Gateway::inmate_rx_trace()).
//   * The replay farm is constructed identically (same FarmOptions.seed,
//     same subfarms/policy INI in the same order) but WITHOUT inmates —
//     inmates are created last in farm assembly, so omitting them leaves
//     the construction-time RNG draw sequence of everything else intact.
//   * schedule_replay() pre-schedules every archived frame for injection
//     at its recorded virtual time; external hosts and containment
//     servers react exactly as they did live.
//   * Equality is judged on EventRecorder::joined() (obs::format_event
//     lines) and the upstream tap's archive bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.h"
#include "packet/pcap.h"

namespace gq::gw {
class Gateway;
}

namespace gq::trace {

/// Subscribes to a bus and accumulates each event's obs::format_event
/// line; the golden-trace comparison runs on joined().
class EventRecorder {
 public:
  explicit EventRecorder(obs::EventBus& bus);
  ~EventRecorder();

  EventRecorder(const EventRecorder&) = delete;
  EventRecorder& operator=(const EventRecorder&) = delete;

  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }
  /// All lines newline-joined (one comparable blob).
  [[nodiscard]] std::string joined() const;

 private:
  obs::EventBus& bus_;
  obs::EventBus::SubscriptionId id_;
  std::vector<std::string> lines_;
};

/// Pre-schedule every archived record for injection into the gateway's
/// inmate port at its recorded virtual time. Call before running the
/// loop (recorded times must still be in the future); pre-scheduling
/// everything up front keeps injected frames ordered ahead of reactive
/// events at equal timestamps, matching live port delivery. Records with
/// snaplen-truncated frames cannot be reproduced faithfully and are
/// skipped. Returns the number of frames scheduled.
std::size_t schedule_replay(gw::Gateway& gateway,
                            const std::vector<pkt::PcapRecord>& records);

}  // namespace gq::trace

// Per-flow state tracked by a subfarm packet router. A flow's life
// (paper §5.4, Figure 5):
//
//   1. kAwaitVerdict — the inmate's flow has been redirected to the
//      containment server (CS); the gateway synthesized the handshake,
//      injected the request shim, and is reassembling the CS's stream
//      to extract the response shim. Inmate payload is both relayed to
//      the CS and buffered for a possible splice.
//   2. kSplicing — verdict was an endpoint-control one (FORWARD / LIMIT /
//      REDIRECT / REFLECT); the gateway RSTs the CS leg and opens its own
//      connection to the real destination, replaying buffered payload.
//   3. kEstablished — relaying with per-direction sequence deltas (and
//      NAT); the CS stays in-path only for REWRITE verdicts.
//   4. kDenied / kClosed — terminal.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "packet/frame.h"
#include "shim/shim.h"
#include "util/addr.h"
#include "util/rate.h"
#include "util/time.h"

namespace gq::gw {

enum class FlowPhase {
  kAwaitVerdict,
  kSplicing,
  kEstablished,
  kDenied,
  kClosed,
};

const char* flow_phase_name(FlowPhase p);

/// State for one contained flow (TCP or UDP).
struct Flow {
  // Identity.
  pkt::FlowProto proto = pkt::FlowProto::kTcp;
  std::uint16_t vlan = 0;
  util::Endpoint inmate_ep;    ///< Internal address + source port.
  util::Endpoint orig_dst;     ///< The destination the inmate dialed.
  util::Ipv4Addr inmate_global;
  /// Source endpoint used on the containment-server leg. Normally equal
  /// to inmate_ep, but the source port is remapped when two concurrent
  /// flows from the same inmate endpoint would collide at the CS's
  /// single listening address (all flows are redirected there).
  util::Endpoint cs_src;
  /// The containment server handling this flow (with clustering, the
  /// per-VLAN member of the subfarm's CS cluster).
  util::Endpoint cs_ep;

  // Verdict state.
  FlowPhase phase = FlowPhase::kAwaitVerdict;
  shim::Verdict verdict = shim::Verdict::kDrop;
  std::string policy_name;
  std::string annotation;
  /// LIMIT rate from the response shim's typed parameter block.
  std::optional<std::int64_t> limit_bytes_per_sec;
  util::Endpoint server_ep;    ///< Current server-side endpoint.
  bool server_is_cs = true;

  // --- TCP sequence bookkeeping ---------------------------------------
  std::uint32_t inmate_isn = 0;
  std::uint32_t cs_isn = 0;
  bool cs_isn_known = false;
  std::uint32_t server_isn = 0;  ///< Splice target's ISN.
  // Sequence-space deltas, applied with mod-2^32 wraparound:
  //   seq_toward_server = inmate_seq + d_out    (acks back: ack - d_out)
  //   seq_toward_inmate = server_seq + d_in     (acks back: ack - d_in)
  std::uint32_t d_out = 0;
  std::uint32_t d_in = 0;
  std::uint32_t inmate_snd_nxt = 0;  ///< Highest inmate seq seen + len.
  std::uint32_t server_rcv_next = 0; ///< Next server-side seq expected.

  // Request-shim injection.
  bool req_shim_sent = false;
  bool req_shim_acked = false;
  int req_shim_retries = 0;
  util::TimePoint req_shim_sent_at;  ///< For shim round-trip latency.
  /// Current retransmit backoff (doubles per retry, bounded by config).
  util::Duration req_shim_backoff{};

  // Fail-closed bookkeeping: the pending verdict-deadline event
  // (sim::EventId; 0 = none) and whether the verdict was synthesized
  // locally because the containment server never answered.
  std::uint64_t verdict_deadline_event = 0;
  bool fail_closed = false;

  /// Where the flow's verdict came from: a CS shim round trip, the
  /// verdict cache, or the compiled policy table. For the latter two no
  /// CS leg exists (no redirect, no request shim, synthetic handshake
  /// state), so CS-leg teardown must be skipped — see served_locally().
  shim::VerdictSource verdict_source = shim::VerdictSource::kShim;

  /// True when the verdict was resolved in-gateway (cache or table):
  /// there is no containment-server leg to tear down or RST.
  [[nodiscard]] bool served_locally() const {
    return verdict_source != shim::VerdictSource::kShim;
  }

  // Response-shim extraction: in-order reassembly of the CS->inmate
  // stream prefix.
  std::vector<std::uint8_t> cs_in_buf;
  std::uint32_t cs_in_expected = 0;  ///< Next CS seq expected.
  std::map<std::uint32_t, std::vector<std::uint8_t>> cs_in_ooo;

  // Inmate payload buffered for splice replay, keyed by inmate seq.
  std::map<std::uint32_t, std::vector<std::uint8_t>> replay_buf;
  std::uint32_t replay_acked = 0;   ///< Target-acked position (inmate seq).
  bool inmate_fin_seen = false;
  std::uint32_t inmate_fin_seq = 0;
  bool replay_fin_sent = false;

  // UDP: datagrams buffered before the verdict.
  std::vector<std::vector<std::uint8_t>> udp_buffer;

  // REWRITE second leg.
  std::uint16_t nonce_port = 0;

  // LIMIT enforcement.
  std::optional<util::TokenBucket> limiter;

  // Accounting.
  std::uint64_t bytes_to_server = 0;
  std::uint64_t bytes_to_inmate = 0;
  util::TimePoint created;
  util::TimePoint last_activity;
  bool fin_inmate = false;
  bool fin_server = false;
  bool reported_open = false;
};

}  // namespace gq::gw

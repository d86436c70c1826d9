// SubfarmRouter: the per-subfarm packet forwarding logic (the Click
// configuration of §6.1). Everything flow-related happens here: the
// redirect of new inmate flows to the containment server, shim
// injection/stripping with sequence bumping (Figure 5), verdict
// enforcement (forward / limit / drop / redirect / reflect / rewrite,
// Figure 2), flow splicing onto real targets, NAT, the safety filter,
// infrastructure-service bypass, inbound-flow handling, per-subfarm
// trace recording, and flow garbage collection.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "gateway/config.h"
#include "gateway/flow.h"
#include "gateway/inmate_table.h"
#include "gateway/policy_table.h"
#include "gateway/safety.h"
#include "gateway/verdict_cache.h"
#include "obs/telemetry.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "trace/tap.h"
#include "util/rng.h"

namespace gq::gw {

class Gateway;

/// Idle timeout after which the periodic sweep closes a flow, and drops
/// an idle nonce relay or inbound NAT entry.
inline constexpr util::Duration kFlowTimeout = util::minutes(5);

class SubfarmRouter {
 public:
  SubfarmRouter(Gateway& gateway, SubfarmConfig config);
  ~SubfarmRouter();

  [[nodiscard]] const SubfarmConfig& config() const { return config_; }

  /// Join an additional containment server to this subfarm's cluster
  /// (§7.2). Only affects flows created afterwards.
  void add_containment_server(util::Endpoint endpoint) {
    config_.extra_containment_servers.push_back(endpoint);
  }
  [[nodiscard]] InmateTable& inmates() { return inmates_; }
  /// This subfarm's rotating trace tap (inmate-network perspective,
  /// untagged, pre-NAT) with its per-flow index; flows gain their
  /// verdict annotation when the router applies one.
  [[nodiscard]] trace::TraceTap& trace() { return trace_; }
  [[nodiscard]] SafetyFilter& safety() { return safety_; }

  // --- Ingress classifiers ---------------------------------------------
  // The gateway parses every frame once into a view over its untagged
  // wire bytes (pkt::FrameView, canonical, aliasing `bytes`) and hands it
  // to one classifier per leg; every handler reads and rewrites that
  // view in place. `view` is empty for an IPv4 frame that is neither TCP
  // nor UDP (ICMP and friends), which only the stateless rules forward.

  /// A frame from an inmate on `vlan`. In order: the infrastructure
  /// bypass, nonce-relay return legs, the inmate as the server side of a
  /// redirected flow, inbound NAT flows, the inmate's own flows, and
  /// flow setup.
  void from_inmate(std::uint16_t vlan, std::optional<pkt::FrameView>& view,
                   std::vector<std::uint8_t>& bytes);

  /// A frame addressed into this subfarm from the server side: from
  /// upstream (`upstream`) or from the management network (containment
  /// server, sink and infrastructure replies). In order: nonce-relay
  /// return legs, flows by their server side, then inbound-forward NAT
  /// (upstream) or infrastructure replies (management).
  void from_server(std::optional<pkt::FrameView>& view,
                   std::vector<std::uint8_t>& bytes, bool upstream);

  /// A TCP frame from the containment server to one of this subfarm's
  /// nonce ports (REWRITE proxy outbound leg).
  void on_nonce_frame(std::uint16_t nonce, pkt::FrameView& view,
                      std::vector<std::uint8_t>& bytes);

  // Statistics (reads of the registry metrics this router maintains;
  // events go to the gateway's telemetry bus).
  [[nodiscard]] std::uint64_t flows_created() const {
    return flows_created_ctr_->value();
  }
  [[nodiscard]] std::size_t flows_active() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t frames_from_inmates() const {
    return frames_from_inmates_ctr_->value();
  }
  [[nodiscard]] std::uint64_t fail_closed_verdicts() const {
    return fail_closed_ctr_->value();
  }
  [[nodiscard]] std::uint64_t shim_retries() const {
    return shim_retries_ctr_->value();
  }

  /// Reconfigure fail-closed behaviour at runtime (configuration-file
  /// plumbing: the [FailClosed] section of the containment config).
  void set_fail_closed(shim::Verdict verdict, util::Duration deadline,
                       util::Endpoint reflect_target = {});

  // --- Verdict cache ----------------------------------------------------
  /// The containment server's policy set changed (config reload): any
  /// epoch newer than the one the cache was filled under flushes it
  /// wholesale. Also invoked inline when a response shim carries a
  /// newer epoch than we have seen.
  void on_policy_epoch(std::uint64_t epoch);
  /// An inmate was reverted or terminated: its VLAN's cached verdicts
  /// describe a machine that no longer exists. Drop them.
  void flush_cache_vlan(std::uint16_t vlan);
  [[nodiscard]] const VerdictCache& verdict_cache() const {
    return verdict_cache_;
  }
  [[nodiscard]] std::uint64_t cache_hits() const {
    return cache_hit_ctr_->value();
  }
  [[nodiscard]] std::uint64_t cache_misses() const {
    return cache_miss_ctr_->value();
  }

  /// Byte totals over this VLAN's flows that have not yet closed — the
  /// complement of kFlowClose accounting. Short-lived detonation jobs
  /// end well inside kFlowTimeout, so their flows' close events land
  /// after the job window; the orchestrator sweeps this at harvest.
  struct OpenFlowBytes {
    std::uint64_t to_server = 0;
    std::uint64_t to_inmate = 0;
  };
  [[nodiscard]] OpenFlowBytes open_flow_bytes(std::uint16_t vlan) const;

  // --- Compiled policy table -------------------------------------------
  /// Install a table pushed by the containment server (shim wire v4).
  /// A sync older than the router's policy epoch is rejected (counted
  /// as stale); a newer one advances the shared epoch, flushing the
  /// verdict cache atomically with the table swap. Returns whether the
  /// table was installed.
  bool install_policy_table(const shim::TableSync& sync);
  [[nodiscard]] const PolicyTable& policy_table() const {
    return policy_table_;
  }
  [[nodiscard]] std::uint64_t table_hits() const {
    return table_hit_ctr_->value();
  }
  [[nodiscard]] std::uint64_t table_fallbacks() const {
    return table_fallback_ctr_->value();
  }

 private:
  struct NonceRelay {
    util::Endpoint cs_ep;       // CS's source for this leg.
    util::Endpoint nat_src;     // What the target sees.
    util::Endpoint target;
    std::uint16_t nonce = 0;
    util::TimePoint last_activity;
  };

  using FlowPtr = std::shared_ptr<Flow>;

  // --- Ingress dispatch -------------------------------------------------
  /// A frame from the server side of one of this subfarm's flows, on any
  /// leg: a nonce-relay return leg, or a flow indexed by its server side.
  /// Returns false, touching nothing, when neither claims it or when its
  /// L4 checksum fails outside an established flow (it is then keyless,
  /// and `view` is cleared).
  bool from_flow_server(std::optional<pkt::FrameView>& view,
                        std::vector<std::uint8_t>& bytes);
  void handle_new_inmate_flow(std::uint16_t vlan, pkt::FrameView& view,
                              std::vector<std::uint8_t>& bytes);

  // --- Established-flow datapath ------------------------------------------
  /// The one rewrite per direction for established flows, in place over
  /// `bytes` through `view` (which aliases it), then the raw egress.
  void forward_to_server(Flow& flow, pkt::FrameView& view,
                         std::vector<std::uint8_t>& bytes);
  void forward_to_inmate(Flow& flow, pkt::FrameView& view,
                         std::vector<std::uint8_t>& bytes);

  // --- Containment-server leg -------------------------------------------
  void relay_inmate_to_server(Flow& flow, pkt::FrameView& view,
                              std::vector<std::uint8_t>& bytes);
  void cs_to_inmate(Flow& flow, pkt::FrameView& view,
                    std::vector<std::uint8_t>& bytes);
  /// Emit the flow's request shim to its containment server: the first
  /// send and every retransmit put the same segment on the wire.
  void send_request_shim(const Flow& flow);
  void inject_request_shim(Flow& flow);
  /// The CS acked past the request shim: record the shim round trip.
  void note_request_shim_ack(Flow& flow, std::uint32_t ack);
  void retransmit_request_shim(FlowPtr flow);
  void process_cs_stream(Flow& flow);

  // --- Verdicts -------------------------------------------------------------
  /// The one place a verdict is applied, whatever its source: a CS shim
  /// over a TCP stream or a UDP datagram, a cache hit, a table hit, or
  /// fail-closed. Shared bookkeeping first (deadline, flow fields,
  /// decision latency, counters, cache insert, trace index), then
  /// enforcement by protocol, then the verdict event. `remainder` is
  /// the rewritten payload behind a UDP REWRITE response shim.
  void apply_verdict(Flow& flow, const shim::ResponseShim& shim,
                     std::span<const std::uint8_t> remainder = {});
  /// Resolve a brand-new flow from a verdict the gateway already holds
  /// (`source` is kCached or kTable): no CS leg ever exists. TCP plays
  /// the server's side of the handshake with a synthetic ISN; the
  /// datagram that opened a UDP flow is delivered through the decided
  /// flow state.
  void serve_local_verdict(Flow& flow, shim::VerdictSource source,
                           shim::ResponseShim synthesized,
                           pkt::FrameView& view,
                           std::vector<std::uint8_t>& bytes);

  // --- Fail-closed resolution ---------------------------------------------
  /// Arm (or re-arm) the flow's verdict deadline.
  void arm_verdict_deadline(const FlowPtr& flow);
  /// Deadline expired (or retries exhausted) with the flow still
  /// undecided: synthesize and enforce the fail-closed verdict.
  void fail_close_flow(Flow& flow);
  /// A verdict (real or synthesized) is being applied: cancel the
  /// deadline and drop the flow from the pending-verdict gauge.
  void verdict_resolved(Flow& flow);

  // --- Splicing -----------------------------------------------------------
  void start_splice(Flow& flow);
  /// UDP's counterpart: re-home the flow from the CS to its server and
  /// flush the datagrams buffered while the verdict was pending.
  void start_udp_relay(Flow& flow);
  void target_to_inmate(Flow& flow, const pkt::FrameView& view);
  /// ACK the target's SYN-ACK on the inmate's behalf.
  void ack_target_syn(Flow& flow);
  void replay_to_target(FlowPtr flow);
  void send_rst_to_cs(Flow& flow);
  void send_rst_to_inmate(Flow& flow);

  // --- UDP ----------------------------------------------------------------
  void udp_from_inmate(Flow& flow, std::span<const std::uint8_t> payload);
  void udp_from_server(Flow& flow, std::span<const std::uint8_t> payload);

  // --- Verdict cache ------------------------------------------------------
  /// Probe the verdict cache for a brand-new flow, counting hits, misses
  /// and expiries: the response shim the CS would have sent, or nullopt
  /// when the cache is off or holds no live entry.
  std::optional<shim::ResponseShim> probe_verdict_cache(
      std::uint16_t vlan, const pkt::FlowKey& key);
  /// Insert a genuine CS verdict into the cache when the policy marked
  /// it cacheable (and it is not REWRITE / stale-epoch), and advance
  /// the cache epoch from the shim.
  void maybe_cache_verdict(const Flow& flow, const shim::ResponseShim& shim);

  // --- Compiled policy table ----------------------------------------------
  /// Probe the policy table for a brand-new flow, counting hits and
  /// fallbacks: the response shim of a concrete rule when the table is
  /// enabled, current-epoch, and matches; nullopt sends the flow down
  /// the cache/shim path.
  std::optional<shim::ResponseShim> probe_policy_table(
      std::uint16_t vlan, const pkt::FlowKey& key);

  // --- Helpers --------------------------------------------------------------
  /// NAT source the server side should see for this flow's server.
  util::Endpoint nat_source_for(const Flow& flow,
                                util::Endpoint server) const;
  /// Cluster member handling a given inmate (§7.2: the same containment
  /// server always handles the same inmate).
  [[nodiscard]] util::Endpoint cs_for_vlan(std::uint16_t vlan) const;
  [[nodiscard]] bool is_internal(util::Ipv4Addr addr) const;
  [[nodiscard]] bool is_infra(util::Ipv4Addr addr) const;
  /// Synthesised segments: built once by the frame builder and handed
  /// to the gateway's one egress, which fills in the MACs.
  void emit_tcp(util::Endpoint src, util::Endpoint dst, std::uint8_t flags,
                std::uint32_t seq, std::uint32_t ack,
                std::span<const std::uint8_t> payload);
  void emit_udp(util::Endpoint src, util::Endpoint dst,
                std::span<const std::uint8_t> payload);
  void report(const Flow& flow, obs::FarmEvent::Kind kind);
  obs::Counter& verdict_counter(shim::Verdict verdict);
  void close_flow(Flow& flow);
  /// Lower gc_due_ to `flow`'s close_due. Called wherever that can move
  /// earlier: flow creation, each FIN flag set, the DROP transition.
  void note_close_due(const Flow& flow);
  void gc_sweep();

  Gateway& gateway_;
  SubfarmConfig config_;
  InmateTable inmates_;
  SafetyFilter safety_;
  trace::TraceTap trace_;
  util::Rng rng_;

  // Metric handles, resolved once against the gateway's registry under
  // the "gw.<subfarm>." prefix.
  obs::Counter* flows_created_ctr_ = nullptr;
  obs::Counter* frames_from_inmates_ctr_ = nullptr;
  obs::Counter* safety_admits_ctr_ = nullptr;
  obs::Counter* safety_rejects_ctr_ = nullptr;
  obs::Gauge* active_flows_gauge_ = nullptr;
  // Every verdict's decision latency, beside the per-source split below:
  // bench/micro_datapath's miniature farm prints it, and the repo's
  // verification recipe checks its flow count.
  obs::Histogram* decision_latency_hist_ = nullptr;
  obs::Histogram* shim_rtt_hist_ = nullptr;
  // Fail-closed / degraded-mode observability.
  obs::Counter* shim_retries_ctr_ = nullptr;
  obs::Counter* verdict_timeouts_ctr_ = nullptr;
  obs::Counter* fail_closed_ctr_ = nullptr;
  obs::Gauge* pending_verdicts_gauge_ = nullptr;
  // Verdict-cache observability.
  obs::Counter* cache_hit_ctr_ = nullptr;
  obs::Counter* cache_miss_ctr_ = nullptr;
  obs::Counter* cache_insert_ctr_ = nullptr;
  obs::Counter* cache_evict_ctr_ = nullptr;
  obs::Counter* cache_expire_ctr_ = nullptr;
  obs::Counter* cache_flush_ctr_ = nullptr;
  obs::Counter* cache_bypass_ctr_ = nullptr;
  // Policy-table observability: local first-contact verdicts, fallback-
  // rule shim escalations, accepted syncs, and stale syncs rejected by
  // epoch.
  obs::Counter* table_hit_ctr_ = nullptr;
  obs::Counter* table_fallback_ctr_ = nullptr;
  obs::Counter* table_sync_ctr_ = nullptr;
  obs::Counter* table_stale_ctr_ = nullptr;
  // Decision latency split by verdict source, indexed by VerdictSource:
  // decision_latency_{uncached,cached,table}_us.
  std::array<obs::Histogram*, 3> decision_latency_by_source_{};
  // Per-verdict counters, resolved once at construction and indexed by
  // (verdict - 1). Replaces per-event name concatenation + registry
  // lookup on the verdict hot path.
  std::array<obs::Counter*, 6> verdict_ctrs_{};

  // Gateway-side verdict cache: repeat flows matching a cacheable
  // decision are resolved here, without a CS round trip. Switched on
  // and off by the gateway's DatapathOptions.
  VerdictCache verdict_cache_;
  /// Highest containment-policy epoch observed (from response shims,
  /// table syncs, or on_policy_epoch()); entries cached under older
  /// epochs are flushed, and a policy table from an older epoch is
  /// never consulted.
  std::uint64_t cache_epoch_ = 0;

  // Compiled policy table: first-contact flows matching a concrete rule
  // are resolved here, before the verdict cache and without a CS round
  // trip.
  PolicyTable policy_table_;

  // Flow table, keyed by the inmate-side original flow. All per-frame
  // lookup tables are hash maps: the datapath does several lookups per
  // frame and never needs ordered iteration.
  std::unordered_map<pkt::FlowKey, FlowPtr, pkt::FlowKeyHash> flows_;
  // Lower bound on the close_due of every flow in flows_ (errs only
  // early); gc_sweep walks flows_ only once the clock has passed it.
  static constexpr util::TimePoint kNever{
      std::numeric_limits<std::int64_t>::max()};
  util::TimePoint gc_due_ = kNever;
  // Server-side index: key is {proto, server_ep, nat_src} as seen in
  // frames arriving from the server side.
  std::unordered_map<pkt::FlowKey, FlowPtr, pkt::FlowKeyHash> server_index_;
  // Inbound (outside-initiated) pass-through flows, keyed as seen from
  // the inmate: {proto, inmate_internal_ep, remote_ep}.
  std::unordered_map<pkt::FlowKey, util::TimePoint, pkt::FlowKeyHash>
      inbound_flows_;
  // Nonce relays.
  std::unordered_map<std::uint16_t, NonceRelay> nonce_relays_;
  std::unordered_map<pkt::FlowKey, std::uint16_t, pkt::FlowKeyHash>
      nonce_by_target_key_;

};

}  // namespace gq::gw

// Structured farm event bus. One typed envelope — FarmEvent — carries
// every observable occurrence in the farm: flow lifecycle and verdicts
// from the gateway's packet routers, containment decisions / served
// infections / trigger firings from the containment servers, safety-
// filter rejections, DHCP address bindings, and sink session activity.
// Publishers fill the fields relevant to their Kind and leave the rest
// defaulted; subscribers filter on Kind.
//
// Components publish here, and consumers — the Figure 7 reporter,
// tests, experiment harnesses — subscribe once, in one place
// (core::Farm's constructor). Dispatch is synchronous and in
// subscription order, which keeps the whole farm deterministic under the
// simulated clock.
//
// An EventBus is single-domain-affine: publishers and subscribers of
// one bus all live in the same execution domain (one farm shard).
// Sharded runs keep one bus per shard and merge the observable streams
// afterwards (core::ShardedFarm::merged_event_lines, built on
// format_event below); nothing ever publishes across shards.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "packet/frame.h"
#include "shim/shim.h"
#include "util/addr.h"
#include "util/time.h"

namespace gq::obs {

struct FarmEvent {
  enum class Kind {
    // Gateway / SubfarmRouter.
    kFlowOpen,      ///< Splice established to the verdict's server.
    kFlowVerdict,   ///< Response shim applied to a contained flow.
    kFlowClose,     ///< Flow closed (FIN/RST/GC); byte counts final.
    kSafetyReject,  ///< Safety filter refused a new flow (§5.2).
    kDhcpBind,      ///< Inmate bound an internal/global address pair.
    // Containment server.
    kCsDecision,       ///< Policy decision issued (CS-side view).
    kInfectionServed,  ///< Auto-infection payload delivered (§6.6).
    kTriggerFired,     ///< Activity trigger fired a lifecycle action.
    // Sinks.
    kSinkSession,  ///< Sink accepted a session / flow.
    kSinkData,     ///< Sink completed a data unit (SMTP DATA, datagram).
    // Detonation-job orchestrator.
    kJobState,  ///< A detonation job changed life-cycle state.
  };

  Kind kind = Kind::kFlowVerdict;
  util::TimePoint time;
  std::string subfarm;
  std::uint16_t vlan = 0;
  pkt::FlowProto proto = pkt::FlowProto::kTcp;

  // Flow / decision facts.
  util::Endpoint orig_dst;
  shim::Verdict verdict = shim::Verdict::kDrop;
  std::string policy_name;
  std::string annotation;
  std::optional<std::int64_t> limit_bytes_per_sec;  ///< LIMIT parameter.
  std::uint64_t bytes_to_server = 0;
  std::uint64_t bytes_to_inmate = 0;
  /// kFlowVerdict: where the verdict was resolved — a containment-
  /// server shim round trip, the gateway's verdict cache, or the
  /// compiled in-gateway policy table. The latter two mean the flow
  /// never reached the containment server.
  shim::VerdictSource verdict_source = shim::VerdictSource::kShim;

  // kDhcpBind.
  util::Ipv4Addr inmate_internal;
  util::Ipv4Addr inmate_global;

  // kInfectionServed.
  std::string sample_name;
  std::string sample_md5;

  // kTriggerFired. The lifecycle action travels by name ("REVERT",
  // "REBOOT", "TERMINATE") so obs does not depend on containment types.
  std::string trigger_text;
  std::string trigger_action;

  // kSinkSession / kSinkData.
  std::string sink_service;      ///< e.g. "smtpsink", "catchall".
  util::Endpoint sink_source;    ///< Inmate-side endpoint (internal addr).

  // kJobState. The state travels by name (orch::job_state_name) so obs
  // does not depend on orchestrator types; sample_name/policy_name
  // carry the job's sample and profile.
  std::uint64_t job_id = 0;
  std::string tenant;
  std::string job_state;
};

const char* farm_event_kind_name(FarmEvent::Kind kind);

/// Canonical one-line rendering of an event, covering every field a
/// publisher sets. Two runs are observably identical iff their
/// format_event streams are byte-identical — this is the comparison key
/// of the same-seed rerun gates (tests/shard_test.cc) and of sweep F's
/// pinned stream hash, so keep it exhaustive: a field omitted here is a
/// field divergence can hide in.
std::string format_event(const FarmEvent& event);

/// Multi-subscriber dispatch. Synchronous, ordered by subscription;
/// unsubscribing is O(subscribers) and safe between publishes.
class EventBus {
 public:
  using Handler = std::function<void(const FarmEvent&)>;
  using SubscriptionId = std::uint64_t;

  /// Subscribe to every event.
  SubscriptionId subscribe(Handler handler);
  /// Subscribe to one Kind only.
  SubscriptionId subscribe(FarmEvent::Kind kind, Handler handler);
  void unsubscribe(SubscriptionId id);

  void publish(const FarmEvent& event);

  [[nodiscard]] std::size_t subscriber_count() const {
    return subscriptions_.size();
  }
  [[nodiscard]] std::uint64_t published() const { return published_; }

 private:
  struct Subscription {
    SubscriptionId id = 0;
    std::optional<FarmEvent::Kind> kind;  // nullopt: all kinds.
    Handler handler;
  };

  std::vector<Subscription> subscriptions_;
  SubscriptionId next_id_ = 1;
  std::uint64_t published_ = 0;
};

}  // namespace gq::obs

// The containment server (paper §5.4, §6.2): a standard application
// server on the management network that the gateway couples to via the
// shim protocol. It decides each flow's containment policy, conveys the
// verdict back in a response shim, acts as the transparent application-
// layer proxy for REWRITE flows (opening outbound legs through the
// gateway's nonce ports), runs the activity-trigger engine that drives
// inmate life-cycles, and sequences auto-infection batches.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "containment/config.h"
#include "containment/policy.h"
#include "containment/samples.h"
#include "containment/trigger.h"
#include "net/stack.h"
#include "net/tcp.h"
#include "obs/telemetry.h"
#include "shim/shim.h"
#include "util/addr.h"

namespace gq::cs {

/// Overload-shedding behaviour for a containment server. Decisions are
/// served from a queue, each occupying the server for `decision_delay`
/// of simulated service time; a request arriving while the queue
/// already holds `shed_queue_depth` entries is *shed* — either refused
/// on the spot with an explicit "OverloadShed" DROP response
/// (refuse = true) or deferred, i.e. queued anyway and answered late
/// (refuse = false). Either way the inmate's gateway leg sees an
/// explicit signal or a late verdict, never silence — shedding stays
/// distinguishable from network loss. All-defaults disables queueing
/// (decisions stay synchronous).
struct OverloadPolicy {
  util::Duration decision_delay{};
  std::size_t shed_queue_depth = 0;
  bool refuse = false;

  [[nodiscard]] bool active() const {
    return decision_delay.usec > 0 || shed_queue_depth > 0;
  }
};

class ContainmentServer : public PolicyServices {
 public:
  /// `listen_port` is the fixed port the gateway redirects flows to;
  /// `gateway_mgmt` is where nonce-port connections are dialed.
  ContainmentServer(net::HostStack& stack, std::uint16_t listen_port,
                    util::Ipv4Addr gateway_mgmt);
  ~ContainmentServer();

  ContainmentServer(const ContainmentServer&) = delete;
  ContainmentServer& operator=(const ContainmentServer&) = delete;

  /// Apply a parsed configuration file: instantiate policies for each
  /// VLAN binding, install triggers, and remember service locations.
  /// `env_base` supplies the sample library / RNG / inmate enumerator;
  /// service locations from the config are merged into it. The env's
  /// backend becomes this server (which delegates list_inmates to the
  /// env_base backend, since only the subfarm knows the inmate table).
  void configure(const ContainmentConfig& config, PolicyEnv env_base);

  /// Join the farm-wide telemetry (metrics + event bus). Standalone
  /// servers own a private Telemetry until this is called. `subfarm`
  /// names this server's scope in metric names and published events.
  void set_telemetry(obs::Telemetry* telemetry, std::string subfarm);
  [[nodiscard]] obs::Telemetry& telemetry() { return *telemetry_; }

  // --- PolicyServices (the production backend) -------------------------
  PolicyServices::InmateList list_inmates() override;
  [[nodiscard]] bool can_list_inmates() const override;
  std::optional<std::string> next_sample(std::uint16_t vlan) override;
  void report_infection(std::uint16_t vlan, const std::string& name,
                        const std::string& md5) override;
  void send_udp(util::Endpoint to, const std::string& message) override;
  /// Encode the compiled table as a shim v4 frame and push it to the
  /// gateway's management address (kTableSyncPort). The gateway fans it
  /// out to the owning subfarm's router.
  void publish_policy_table(const shim::TableSync& table) override;

  /// Bind a policy instance directly (tests / programmatic setup).
  /// Recompiles and republishes the policy table under the current
  /// epoch.
  void bind_policy(std::uint16_t vlan_first, std::uint16_t vlan_last,
                   std::shared_ptr<Policy> policy);

  /// Like bind_policy, but with precedence: policy_for() is first-match
  /// across bindings (and the compiled table preserves that order), so
  /// a front binding overrides any existing one covering the same
  /// VLANs without clearing the static configuration underneath. The
  /// detonation orchestrator uses this to swap tenant policy profiles
  /// onto a recycled slot.
  void bind_policy_front(std::uint16_t vlan_first, std::uint16_t vlan_last,
                         std::shared_ptr<Policy> policy);

  /// Compile the current policy bindings into the flat match-action
  /// table (stamped with the current policy epoch). Each binding whose
  /// policy compiles contributes its rules with the binding's VLAN range
  /// and priority; non-compilable or trigger-coupled bindings contribute
  /// one catch-all fallback rule so their flows stay on the shim path.
  [[nodiscard]] shim::TableSync compile_policy_table() const;

  /// Where life-cycle commands go (the inmate controller, §5.5).
  void set_inmate_controller(util::Endpoint controller);

  /// Install (or disable, with an all-defaults policy) overload
  /// shedding. Takes effect for subsequently arriving decisions.
  void set_overload(const OverloadPolicy& policy) { overload_ = policy; }
  [[nodiscard]] const OverloadPolicy& overload() const { return overload_; }
  [[nodiscard]] std::size_t pending_decisions() const {
    return pending_decisions_.size();
  }

  /// Life-cycle notification: arms triggers for this inmate.
  void notify_inmate_started(std::uint16_t vlan);

  /// The next auto-infection sample for an inmate, advancing the batch
  /// cursor. nullopt when the VLAN has no infection binding.
  std::optional<std::string> next_sample_name(std::uint16_t vlan);

  [[nodiscard]] SampleLibrary& samples() { return samples_; }
  /// Monotonically increasing policy generation, bumped by every
  /// configure(). Carried in each v3 response shim so the gateway can
  /// invalidate cached verdicts from older policy configurations.
  [[nodiscard]] std::uint64_t policy_epoch() const { return policy_epoch_; }
  [[nodiscard]] std::uint64_t flows_decided() const { return flows_decided_; }
  [[nodiscard]] std::uint64_t rewrites_active() const {
    return rewrites_active_;
  }
  [[nodiscard]] util::Endpoint endpoint() const {
    return {stack_.addr(), listen_port_};
  }

 private:
  class SessionContext;
  struct Session;

  void on_accept(std::shared_ptr<net::TcpConnection> conn);
  void on_inmate_data(std::shared_ptr<Session> session,
                      std::span<const std::uint8_t> data);
  void on_udp(util::Endpoint from, std::vector<std::uint8_t> data);
  void finish_tcp_decision(std::shared_ptr<Session> session,
                           std::vector<std::uint8_t> leftover);
  void finish_udp_decision(util::Endpoint from, shim::RequestShim request,
                           std::vector<std::uint8_t> payload);
  /// Route `request`'s decision through the overload queue (or run it
  /// inline when shedding is disabled). When the queue is full and the
  /// policy says to refuse, the flow is refused instead: `reply` sends
  /// an "OverloadShed" DROP response, and a kCsDecision event records
  /// it.
  void submit_decision(
      const shim::RequestShim& request, pkt::FlowProto proto,
      std::function<void()> run,
      const std::function<void(std::span<const std::uint8_t>)>& reply);
  void drain_decisions();
  /// The response shim answering `request` with `decision`, stamped with
  /// the v3 cache block: the current policy epoch plus the decision's
  /// cacheability — which is refused for kRewrite (the server must stay
  /// in-path to proxy the flow).
  [[nodiscard]] shim::ResponseShim make_response(
      const shim::RequestShim& request, const Decision& decision,
      std::string policy_name) const;
  /// Publish the kCsDecision event for `decision` on `request`'s flow.
  void publish_decision(const shim::RequestShim& request,
                        pkt::FlowProto proto, const Decision& decision,
                        std::string policy_name);
  std::shared_ptr<Policy> policy_for(std::uint16_t vlan);
  Decision decide(FlowInfo& info, std::shared_ptr<Policy>& policy_out,
                  std::unique_ptr<RewriteHandler>* handler_out);
  void evaluate_triggers();
  void send_lifecycle(std::uint16_t vlan, LifecycleAction action);
  /// A FarmEvent of `kind` stamped with this server's clock and subfarm.
  [[nodiscard]] obs::FarmEvent make_event(obs::FarmEvent::Kind kind) const;
  void rebind_metrics();

  net::HostStack& stack_;
  std::uint16_t listen_port_;
  util::Ipv4Addr gateway_mgmt_;
  std::shared_ptr<net::UdpSocket> udp_sock_;
  std::shared_ptr<net::UdpSocket> control_sock_;

  struct PolicyBinding {
    VlanRange range;
    std::shared_ptr<Policy> policy;
  };
  std::vector<PolicyBinding> policies_;
  /// VLAN ranges covered by activity triggers. A policy binding whose
  /// range intersects any of these is never compiled concretely:
  /// triggers key on decide()-observed flows, and table-served flows are
  /// invisible to the containment server.
  std::vector<VlanRange> trigger_ranges_;
  struct InfectionBinding {
    VlanRange range;
    std::vector<std::string> batch;
    std::map<std::uint16_t, std::size_t> cursor;  // Per-VLAN batch index.
  };
  std::vector<InfectionBinding> infections_;
  PolicyEnv env_;
  SampleLibrary samples_;
  TriggerEngine triggers_;
  std::optional<util::Endpoint> controller_;

  // Telemetry: farm-shared when set_telemetry() was called, private
  // otherwise. Metric handles are re-resolved on every rebind.
  std::unique_ptr<obs::Telemetry> owned_telemetry_;
  obs::Telemetry* telemetry_ = nullptr;
  std::string subfarm_name_;
  obs::Counter* decisions_ctr_ = nullptr;
  obs::Counter* infections_ctr_ = nullptr;
  obs::Counter* triggers_ctr_ = nullptr;
  obs::Gauge* rewrites_gauge_ = nullptr;
  obs::Counter* shed_refused_ctr_ = nullptr;
  obs::Counter* shed_deferred_ctr_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
  // list_inmates delegate (the subfarm's enumerator), from env_base.
  PolicyServices* inmate_source_ = nullptr;

  // Cached UDP decisions, keyed by (orig, resp).
  std::map<std::pair<util::Endpoint, util::Endpoint>, Decision>
      udp_decisions_;

  // Overload shedding.
  OverloadPolicy overload_;
  std::deque<std::function<void()>> pending_decisions_;
  bool drain_scheduled_ = false;

  std::uint64_t flows_decided_ = 0;
  std::uint64_t rewrites_active_ = 0;
  std::uint64_t policy_epoch_ = 0;
};

}  // namespace gq::cs

#include "containment/server.h"

#include <algorithm>

#include "util/bytes.h"
#include "util/log.h"
#include "util/strings.h"

namespace gq::cs {

namespace {
constexpr const char* kLog = "cs";
constexpr util::Duration kTriggerPollInterval = util::seconds(10);
}  // namespace

/// One inmate-side TCP session (a contained flow terminated at the CS).
struct ContainmentServer::Session
    : std::enable_shared_from_this<ContainmentServer::Session> {
  std::shared_ptr<net::TcpConnection> inmate;
  std::vector<std::uint8_t> buffer;
  bool shim_parsed = false;
  FlowInfo info;
  std::shared_ptr<Policy> policy;
  std::unique_ptr<RewriteHandler> handler;
  std::unique_ptr<SessionContext> context;
  std::shared_ptr<net::TcpConnection> target;
  bool target_up = false;
  bool counted_rewrite = false;
};

/// RewriteContext implementation wiring a Session's two legs.
class ContainmentServer::SessionContext : public RewriteContext {
 public:
  // Holds a raw back-pointer: the context is owned by the session
  // (`Session::context`), so it can never outlive it — and a shared_ptr
  // here would form a session→context→session cycle that leaks every
  // rewritten flow.
  SessionContext(ContainmentServer& server, std::shared_ptr<Session> session)
      : server_(server), session_(session.get()) {}

  void send_to_inmate(std::span<const std::uint8_t> data) override {
    if (session_->inmate) session_->inmate->send(data);
  }
  using RewriteContext::send_to_inmate;
  using RewriteContext::send_to_target;

  void close_inmate() override {
    if (session_->inmate) session_->inmate->close();
  }

  void connect_outbound() override {
    if (session_->target) return;
    auto session = session_->shared_from_this();
    auto& server = server_;
    session->target = server.stack_.connect(
        {server.gateway_mgmt_, session->info.shim.nonce_port});
    session->target->on_connected = [session] {
      session->target_up = true;
      if (session->handler)
        session->handler->on_target_connected(*session->context);
    };
    session->target->on_data = [session](std::span<const std::uint8_t> d) {
      if (session->handler)
        session->handler->on_target_data(*session->context, d);
    };
    session->target->on_remote_close = [session] {
      if (session->handler)
        session->handler->on_target_closed(*session->context);
    };
    session->target->on_reset = [session] {
      session->target_up = false;
      if (session->handler)
        session->handler->on_target_closed(*session->context);
    };
  }

  void send_to_target(std::span<const std::uint8_t> data) override {
    if (session_->target) session_->target->send(data);
  }

  void close_target() override {
    if (session_->target) session_->target->close();
  }

  [[nodiscard]] bool target_connected() const override {
    return session_->target_up;
  }

  [[nodiscard]] const FlowInfo& info() const override {
    return session_->info;
  }

  [[nodiscard]] sim::EventLoop& loop() override {
    return server_.stack_.loop();
  }

 private:
  ContainmentServer& server_;
  Session* session_;
};

ContainmentServer::ContainmentServer(net::HostStack& stack,
                                     std::uint16_t listen_port,
                                     util::Ipv4Addr gateway_mgmt)
    : stack_(stack), listen_port_(listen_port), gateway_mgmt_(gateway_mgmt) {
  owned_telemetry_ = std::make_unique<obs::Telemetry>();
  telemetry_ = owned_telemetry_.get();
  rebind_metrics();
  stack_.listen(listen_port_,
                [this](std::shared_ptr<net::TcpConnection> conn) {
                  on_accept(std::move(conn));
                });
  udp_sock_ = stack_.udp_open(listen_port_);
  udp_sock_->on_datagram = [this](util::Endpoint from,
                                  std::vector<std::uint8_t> data) {
    on_udp(from, std::move(data));
  };
  control_sock_ = stack_.udp_open(0);
  stack_.loop().schedule_in(kTriggerPollInterval,
                            [this] { evaluate_triggers(); });
}

ContainmentServer::~ContainmentServer() = default;

void ContainmentServer::rebind_metrics() {
  const std::string prefix =
      "cs." + (subfarm_name_.empty() ? std::string("default") : subfarm_name_) +
      ".";
  auto& metrics = telemetry_->metrics();
  decisions_ctr_ = &metrics.counter(prefix + "decisions");
  infections_ctr_ = &metrics.counter(prefix + "infections_served");
  triggers_ctr_ = &metrics.counter(prefix + "triggers_fired");
  rewrites_gauge_ = &metrics.gauge(prefix + "rewrites_active");
  shed_refused_ctr_ = &metrics.counter(prefix + "shed_refused");
  shed_deferred_ctr_ = &metrics.counter(prefix + "shed_deferred");
  pending_gauge_ = &metrics.gauge(prefix + "pending_decisions");
}

void ContainmentServer::set_telemetry(obs::Telemetry* telemetry,
                                      std::string subfarm) {
  telemetry_ = telemetry ? telemetry : owned_telemetry_.get();
  subfarm_name_ = std::move(subfarm);
  rebind_metrics();
}

// --- PolicyServices backend -------------------------------------------------

PolicyServices::InmateList ContainmentServer::list_inmates() {
  return inmate_source_ ? inmate_source_->list_inmates()
                        : PolicyServices::InmateList{};
}

bool ContainmentServer::can_list_inmates() const {
  return inmate_source_ && inmate_source_->can_list_inmates();
}

std::optional<std::string> ContainmentServer::next_sample(std::uint16_t vlan) {
  return next_sample_name(vlan);
}

void ContainmentServer::report_infection(std::uint16_t vlan,
                                         const std::string& name,
                                         const std::string& md5) {
  infections_ctr_->inc();
  auto event = make_event(obs::FarmEvent::Kind::kInfectionServed);
  event.vlan = vlan;
  event.sample_name = name;
  event.sample_md5 = md5;
  telemetry_->publish(event);
}

void ContainmentServer::send_udp(util::Endpoint to,
                                 const std::string& message) {
  control_sock_->send_to(to, util::to_bytes(message));
}

void ContainmentServer::configure(const ContainmentConfig& config,
                                  PolicyEnv env_base) {
  register_builtin_policies();
  // Chain the services backend: the caller's backend (if any) keeps
  // providing list_inmates — only the subfarm knows its inmate table —
  // while this server answers samples, infections and UDP hints.
  inmate_source_ = env_base.backend;
  env_ = std::move(env_base);
  env_.backend = this;
  for (const auto& [name, endpoint] : config.services)
    env_.services[name] = endpoint;
  if (!env_.samples) env_.samples = &samples_;

  // Every (re)configuration starts a new policy generation: verdicts the
  // gateway cached under the previous configuration must stop matching.
  ++policy_epoch_;

  policies_.clear();
  infections_.clear();
  for (const auto& binding : config.bindings) {
    if (!binding.decider.empty()) {
      auto policy = PolicyRegistry::instance().create(binding.decider, env_);
      if (!policy) {
        throw std::runtime_error("config references unknown policy '" +
                                 binding.decider + "'");
      }
      policies_.push_back(PolicyBinding{binding.range, std::move(policy)});
    }
    if (!binding.infection_glob.empty()) {
      InfectionBinding infection;
      infection.range = binding.range;
      infection.batch = env_.samples->match(binding.infection_glob);
      if (infection.batch.empty()) {
        GQ_WARN(kLog, "infection glob '%s' matches no samples",
                binding.infection_glob.c_str());
      }
      infections_.push_back(std::move(infection));
    }
  }
  for (const auto& trigger : config.triggers) {
    triggers_.add(trigger.range.first, trigger.range.last, trigger.trigger);
    trigger_ranges_.push_back(trigger.range);
  }

  // The new generation's compiled table ships immediately so the
  // gateway's first-contact datapath flips to the fresh rules in the
  // same reconfiguration step that invalidates its verdict cache.
  publish_policy_table(compile_policy_table());
}

void ContainmentServer::bind_policy(std::uint16_t vlan_first,
                                    std::uint16_t vlan_last,
                                    std::shared_ptr<Policy> policy) {
  policies_.push_back(
      PolicyBinding{VlanRange{vlan_first, vlan_last}, std::move(policy)});
  // Same epoch, new rules: the gateway re-installs idempotently.
  publish_policy_table(compile_policy_table());
}

void ContainmentServer::bind_policy_front(std::uint16_t vlan_first,
                                          std::uint16_t vlan_last,
                                          std::shared_ptr<Policy> policy) {
  policies_.insert(
      policies_.begin(),
      PolicyBinding{VlanRange{vlan_first, vlan_last}, std::move(policy)});
  publish_policy_table(compile_policy_table());
}

shim::TableSync ContainmentServer::compile_policy_table() const {
  shim::TableSync sync;
  sync.epoch = policy_epoch_;
  for (std::size_t i = 0; i < policies_.size(); ++i) {
    const auto& binding = policies_[i];
    const bool trigger_coupled =
        std::any_of(trigger_ranges_.begin(), trigger_ranges_.end(),
                    [&](const VlanRange& r) {
                      return r.first <= binding.range.last &&
                             binding.range.first <= r.last;
                    });
    std::optional<std::vector<shim::TableRule>> compiled;
    if (!trigger_coupled) compiled = binding.policy->compile();
    if (!compiled) {
      // Non-compilable (or trigger-coupled: the trigger engine must see
      // every flow via decide()): one catch-all fallback for the range.
      shim::TableRule rule;
      compiled = std::vector<shim::TableRule>{rule};
    }
    for (auto rule : *compiled) {
      rule.vlan_first = binding.range.first;
      rule.vlan_last = binding.range.last;
      rule.priority = static_cast<std::uint16_t>(i);
      rule.policy_name = binding.policy->name();
      sync.rules.push_back(std::move(rule));
    }
  }
  return sync;
}

void ContainmentServer::publish_policy_table(const shim::TableSync& table) {
  std::vector<std::uint8_t> frame;
  try {
    frame = table.encode();
  } catch (const std::length_error&) {
    // An oversized table fails safe: the gateway keeps (and eventually
    // epoch-expires) its previous table and every flow takes the shim
    // path.
    GQ_WARN(kLog, "compiled policy table too large to sync (%zu rules)",
            table.rules.size());
    return;
  }
  control_sock_->send_to({gateway_mgmt_, shim::kTableSyncPort}, frame);
  GQ_INFO(kLog, "pushed policy table: epoch %llu, %zu rules",
          static_cast<unsigned long long>(table.epoch), table.rules.size());
}

void ContainmentServer::set_inmate_controller(util::Endpoint controller) {
  controller_ = controller;
}

void ContainmentServer::notify_inmate_started(std::uint16_t vlan) {
  triggers_.inmate_started(vlan, stack_.loop().now());
}

std::optional<std::string> ContainmentServer::next_sample_name(
    std::uint16_t vlan) {
  for (auto& infection : infections_) {
    if (!infection.range.contains(vlan) || infection.batch.empty()) continue;
    std::size_t& cursor = infection.cursor[vlan];
    const std::string& name = infection.batch[cursor % infection.batch.size()];
    ++cursor;
    return name;
  }
  return std::nullopt;
}

shim::ResponseShim ContainmentServer::make_response(
    const shim::RequestShim& request, const Decision& decision,
    std::string policy_name) const {
  shim::ResponseShim response;
  response.orig = request.orig;
  response.resp = (decision.verdict == shim::Verdict::kRedirect ||
                   decision.verdict == shim::Verdict::kReflect)
                      ? decision.target
                      : request.resp;
  response.verdict = decision.verdict;
  response.policy_name = std::move(policy_name);
  response.annotation = decision.annotation;
  response.limit_bytes_per_sec = decision.limit_bytes_per_sec;
  response.policy_epoch = policy_epoch_;
  if (!decision.cacheable) return response;
  if (decision.verdict == shim::Verdict::kRewrite) {
    GQ_WARN(kLog, "policy marked a REWRITE decision cacheable; refusing");
    return response;
  }
  response.cacheable = true;
  response.cache_scope = decision.cache_scope;
  response.cache_ttl_ms = decision.cache_ttl_ms;
  return response;
}

void ContainmentServer::publish_decision(const shim::RequestShim& request,
                                         pkt::FlowProto proto,
                                         const Decision& decision,
                                         std::string policy_name) {
  auto event = make_event(obs::FarmEvent::Kind::kCsDecision);
  event.vlan = request.vlan;
  event.orig_dst = request.resp;
  event.proto = proto;
  event.verdict = decision.verdict;
  event.policy_name = std::move(policy_name);
  event.annotation = decision.annotation;
  event.limit_bytes_per_sec = decision.limit_bytes_per_sec;
  telemetry_->publish(event);
}

std::shared_ptr<Policy> ContainmentServer::policy_for(std::uint16_t vlan) {
  for (auto& binding : policies_)
    if (binding.range.contains(vlan)) return binding.policy;
  return nullptr;
}

Decision ContainmentServer::decide(
    FlowInfo& info, std::shared_ptr<Policy>& policy_out,
    std::unique_ptr<RewriteHandler>* handler_out) {
  ++flows_decided_;
  decisions_ctr_->inc();
  policy_out = policy_for(info.vlan());
  Decision decision = policy_out ? policy_out->decide(info)
                                 : Decision::drop("no policy bound");
  if (decision.verdict == shim::Verdict::kRewrite && handler_out) {
    *handler_out = policy_out->make_rewrite_handler(info);
    if (!*handler_out && info.proto == pkt::FlowProto::kTcp) {
      decision = Decision::drop("rewrite without handler");
    }
  }
  triggers_.observe_flow(info.vlan(), info.dst(), info.proto,
                         stack_.loop().now());

  publish_decision(info.shim, info.proto, decision,
                   policy_out ? policy_out->name() : "DefaultDeny");
  return decision;
}

void ContainmentServer::on_accept(std::shared_ptr<net::TcpConnection> conn) {
  auto session = std::make_shared<Session>();
  session->inmate = conn;
  conn->on_data = [this, session](std::span<const std::uint8_t> data) {
    on_inmate_data(session, data);
  };
  conn->on_remote_close = [session] {
    if (session->handler && session->context)
      session->handler->on_inmate_closed(*session->context);
    if (session->inmate) session->inmate->close();
  };
  conn->on_closed = [this, session] {
    if (session->counted_rewrite && rewrites_active_ > 0) {
      --rewrites_active_;
      rewrites_gauge_->sub(1);
    }
    if (session->target) session->target->close();
    // The inmate leg is fully terminated — nothing fires on this conn
    // again (enter_closed keeps it alive through this callback). Drop
    // the session's conn refs so the lambda-held cycles (conn→lambda→
    // session→conn, and likewise for the target leg) unwind once the
    // stack releases each connection.
    session->inmate.reset();
    session->target.reset();
  };
}

void ContainmentServer::on_inmate_data(std::shared_ptr<Session> session,
                                       std::span<const std::uint8_t> data) {
  if (session->shim_parsed) {
    if (session->handler)
      session->handler->on_inmate_data(*session->context, data);
    return;
  }
  session->buffer.insert(session->buffer.end(), data.begin(), data.end());
  if (session->buffer.size() < shim::kRequestShimSize) return;
  auto request = shim::RequestShim::parse(session->buffer);
  if (!request) {
    GQ_WARN(kLog, "malformed request shim from %s; refusing flow",
            session->inmate->remote().str().c_str());
    session->inmate->abort();
    return;
  }
  session->shim_parsed = true;
  session->info.shim = *request;
  session->info.proto = pkt::FlowProto::kTcp;
  std::vector<std::uint8_t> leftover(
      session->buffer.begin() + shim::kRequestShimSize,
      session->buffer.end());
  session->buffer.clear();

  submit_decision(
      *request, pkt::FlowProto::kTcp,
      [this, session, leftover = std::move(leftover)]() mutable {
        finish_tcp_decision(session, std::move(leftover));
      },
      [session](std::span<const std::uint8_t> refusal) {
        session->inmate->send(refusal);
        session->inmate->close();
      });
}

void ContainmentServer::finish_tcp_decision(
    std::shared_ptr<Session> session, std::vector<std::uint8_t> leftover) {
  // The inmate leg may have been reset while the decision sat queued.
  if (!session->inmate) return;

  Decision decision =
      decide(session->info, session->policy, &session->handler);

  session->inmate->send(
      make_response(session->info.shim, decision,
                    session->policy ? session->policy->name() : "DefaultDeny")
          .encode());

  if (decision.verdict == shim::Verdict::kRewrite && session->handler) {
    ++rewrites_active_;
    rewrites_gauge_->add(1);
    session->counted_rewrite = true;
    session->context = std::make_unique<SessionContext>(*this, session);
    session->handler->on_start(*session->context);
    if (!leftover.empty())
      session->handler->on_inmate_data(*session->context, leftover);
  } else {
    // Endpoint verdicts: our part is done; the gateway takes over (and
    // typically resets this leg). Close gracefully from our side.
    session->inmate->close();
  }
}

void ContainmentServer::submit_decision(
    const shim::RequestShim& request, pkt::FlowProto proto,
    std::function<void()> run,
    const std::function<void(std::span<const std::uint8_t>)>& reply) {
  if (!overload_.active()) {
    run();
    return;
  }
  if (overload_.shed_queue_depth > 0 &&
      pending_decisions_.size() >= overload_.shed_queue_depth) {
    if (overload_.refuse) {
      // Refused under overload: an explicit DROP, attributed to
      // "OverloadShed" so the report stream can tell shedding apart
      // from a lost or timed-out shim exchange.
      shed_refused_ctr_->inc();
      const Decision refusal = Decision::drop("decision queue full");
      reply(make_response(request, refusal, "OverloadShed").encode());
      publish_decision(request, proto, refusal, "OverloadShed");
      return;
    }
    shed_deferred_ctr_->inc();
  }
  pending_decisions_.push_back(std::move(run));
  pending_gauge_->set(static_cast<std::int64_t>(pending_decisions_.size()));
  if (!drain_scheduled_) {
    drain_scheduled_ = true;
    stack_.loop().schedule_in(overload_.decision_delay,
                              [this] { drain_decisions(); });
  }
}

void ContainmentServer::drain_decisions() {
  drain_scheduled_ = false;
  if (pending_decisions_.empty()) return;
  auto run = std::move(pending_decisions_.front());
  pending_decisions_.pop_front();
  pending_gauge_->set(static_cast<std::int64_t>(pending_decisions_.size()));
  run();
  if (!pending_decisions_.empty()) {
    drain_scheduled_ = true;
    stack_.loop().schedule_in(overload_.decision_delay,
                              [this] { drain_decisions(); });
  }
}

void ContainmentServer::on_udp(util::Endpoint from,
                               std::vector<std::uint8_t> data) {
  auto request = shim::RequestShim::parse(data);
  if (!request) return;
  std::vector<std::uint8_t> payload(data.begin() + shim::kRequestShimSize,
                                    data.end());
  submit_decision(
      *request, pkt::FlowProto::kUdp,
      [this, from, request = *request, payload = std::move(payload)]() mutable {
        finish_udp_decision(from, request, std::move(payload));
      },
      [this, from](std::span<const std::uint8_t> refusal) {
        udp_sock_->send_to(from, refusal);
      });
}

void ContainmentServer::finish_udp_decision(util::Endpoint from,
                                            shim::RequestShim request,
                                            std::vector<std::uint8_t> data) {
  std::span<const std::uint8_t> payload(data);

  FlowInfo info;
  info.shim = request;
  info.proto = pkt::FlowProto::kUdp;

  const auto key = std::make_pair(request.orig, request.resp);
  auto cached = udp_decisions_.find(key);
  std::shared_ptr<Policy> policy = policy_for(info.vlan());
  Decision decision;
  if (cached == udp_decisions_.end()) {
    decision = decide(info, policy, nullptr);
    udp_decisions_[key] = decision;
  } else {
    decision = cached->second;
  }

  auto reply =
      make_response(request, decision,
                    policy ? policy->name() : "DefaultDeny")
          .encode();

  if (decision.verdict == shim::Verdict::kRewrite && policy) {
    if (auto rewritten = policy->rewrite_udp(info, payload)) {
      reply.insert(reply.end(), rewritten->begin(), rewritten->end());
    }
  }
  udp_sock_->send_to(from, reply);
}

void ContainmentServer::evaluate_triggers() {
  for (const auto& firing : triggers_.evaluate(stack_.loop().now())) {
    GQ_INFO(kLog, "trigger fired for vlan %u: %s", firing.vlan,
            firing.trigger_text.c_str());
    triggers_ctr_->inc();
    auto event = make_event(obs::FarmEvent::Kind::kTriggerFired);
    event.vlan = firing.vlan;
    event.trigger_text = firing.trigger_text;
    event.trigger_action = lifecycle_action_name(firing.action);
    telemetry_->publish(event);
    send_lifecycle(firing.vlan, firing.action);
  }
  stack_.loop().schedule_in(kTriggerPollInterval,
                            [this] { evaluate_triggers(); });
}

void ContainmentServer::send_lifecycle(std::uint16_t vlan,
                                       LifecycleAction action) {
  if (!controller_) {
    GQ_WARN(kLog, "no inmate controller configured; %s vlan %u not sent",
            lifecycle_action_name(action), vlan);
    return;
  }
  // The paper's "simple text-based message format" (§6.3).
  const std::string message = util::format(
      "%s %u\n", lifecycle_action_name(action), vlan);
  control_sock_->send_to(*controller_, util::to_bytes(message));
}

obs::FarmEvent ContainmentServer::make_event(
    obs::FarmEvent::Kind kind) const {
  obs::FarmEvent event;
  event.kind = kind;
  event.time = stack_.loop().now();
  event.subfarm = subfarm_name_;
  // Every event this server publishes names a lifecycle action: REVERT
  // unless a trigger fired another. format_event renders the field, so
  // it is part of the published stream.
  event.trigger_action = lifecycle_action_name(LifecycleAction::kRevert);
  return event;
}

}  // namespace gq::cs

// Containment policies (paper §6.2, "Policy structure"). Policies are
// codified as classes; the containment server instantiates them keyed
// on VLAN ID ranges and applies them per flow. Endpoint control is
// decided from the flow's four-tuple; content control (REWRITE) hands
// the flow to a RewriteHandler that acts as a transparent application-
// layer proxy — optionally opening an outbound leg through the
// gateway's nonce port, or impersonating the destination outright
// (auto-infection, §6.6).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netsim/event_loop.h"
#include "packet/frame.h"
#include "shim/shim.h"
#include "shim/table_sync.h"
#include "util/addr.h"
#include "util/rng.h"

namespace gq::cs {

class SampleLibrary;

/// Everything a policy may key its decision on: the request shim's
/// four-tuple and VLAN, plus the transport protocol.
struct FlowInfo {
  shim::RequestShim shim;
  pkt::FlowProto proto = pkt::FlowProto::kTcp;

  [[nodiscard]] util::Endpoint orig() const { return shim.orig; }
  [[nodiscard]] util::Endpoint dst() const { return shim.resp; }
  [[nodiscard]] std::uint16_t vlan() const { return shim.vlan; }
};

/// A policy's endpoint-control decision for one flow. Construct through
/// the named builders — Decision::forward()/drop()/limit(bps)/
/// redirect(ep)/reflect(sink)/rewrite() — chaining .cached(scope, ttl)
/// to opt into gateway-side verdict caching.
struct Decision {
  shim::Verdict verdict = shim::Verdict::kDrop;
  /// Target for kRedirect / kReflect (copied into the response shim's
  /// resulting four-tuple).
  util::Endpoint target;
  /// Purely descriptive annotation (report grouping label). Verdict
  /// parameters are typed fields below, never string-packed here.
  std::string annotation;
  /// Byte rate for kLimit, carried in the response shim's typed
  /// parameter block.
  std::optional<std::int64_t> limit_bytes_per_sec;

  /// Gateway-side verdict caching (shim v3 cache block). Strictly
  /// opt-in via cached(): a decision that depends on per-flow state or
  /// has side effects (sink hints, one-shot exemptions) must stay
  /// non-cacheable, and kRewrite can never be cached — the containment
  /// server must stay in-path.
  bool cacheable = false;
  shim::CacheScope cache_scope = shim::CacheScope::kExactFlow;
  /// 0: the gateway's configured default TTL applies.
  std::uint32_t cache_ttl_ms = 0;

  /// Fluent opt-in: mark this decision cacheable at the given scope.
  /// Ignored (containment server refuses the flag) on kRewrite.
  Decision cached(shim::CacheScope scope, std::uint32_t ttl_ms = 0) && {
    cacheable = true;
    cache_scope = scope;
    cache_ttl_ms = ttl_ms;
    return std::move(*this);
  }

  /// Fluent annotation: attach/replace the descriptive label.
  Decision annotated(std::string why) && {
    annotation = std::move(why);
    return std::move(*this);
  }

  static Decision forward(std::string why = "") {
    Decision d;
    d.verdict = shim::Verdict::kForward;
    d.annotation = std::move(why);
    return d;
  }
  static Decision drop(std::string why = "") {
    Decision d;
    d.annotation = std::move(why);
    return d;
  }
  static Decision reflect(util::Endpoint sink, std::string why = "") {
    Decision d;
    d.verdict = shim::Verdict::kReflect;
    d.target = sink;
    d.annotation = std::move(why);
    return d;
  }
  static Decision redirect(util::Endpoint to, std::string why = "") {
    Decision d;
    d.verdict = shim::Verdict::kRedirect;
    d.target = to;
    d.annotation = std::move(why);
    return d;
  }
  static Decision limit(std::int64_t bytes_per_sec) {
    Decision d;
    d.verdict = shim::Verdict::kLimit;
    d.annotation = "limit " + std::to_string(bytes_per_sec) + " B/s";
    d.limit_bytes_per_sec = bytes_per_sec;
    return d;
  }
  static Decision rewrite(std::string why = "") {
    Decision d;
    d.verdict = shim::Verdict::kRewrite;
    d.annotation = std::move(why);
    return d;
  }
};

/// Plumbing the containment server provides to a RewriteHandler.
class RewriteContext {
 public:
  virtual ~RewriteContext() = default;

  /// Push bytes to the inmate (they appear to come from the original
  /// destination).
  virtual void send_to_inmate(std::span<const std::uint8_t> data) = 0;
  void send_to_inmate(std::string_view text);

  /// Close the inmate-side connection (gracefully).
  virtual void close_inmate() = 0;

  /// Open the outbound leg to the flow's true destination through the
  /// gateway's nonce port. on_data/on_closed fire as the target answers.
  virtual void connect_outbound() = 0;
  virtual void send_to_target(std::span<const std::uint8_t> data) = 0;
  void send_to_target(std::string_view text);
  virtual void close_target() = 0;
  [[nodiscard]] virtual bool target_connected() const = 0;

  [[nodiscard]] virtual const FlowInfo& info() const = 0;
  [[nodiscard]] virtual sim::EventLoop& loop() = 0;
};

/// Per-flow content-control logic for REWRITE verdicts.
class RewriteHandler {
 public:
  virtual ~RewriteHandler() = default;

  /// Called once after the verdict is issued.
  virtual void on_start(RewriteContext&) {}
  /// Bytes arriving from the inmate.
  virtual void on_inmate_data(RewriteContext&,
                              std::span<const std::uint8_t> data) = 0;
  /// Bytes arriving from the outbound target leg (if opened).
  virtual void on_target_data(RewriteContext&,
                              std::span<const std::uint8_t>) {}
  virtual void on_target_connected(RewriteContext&) {}
  virtual void on_target_closed(RewriteContext&) {}
  virtual void on_inmate_closed(RewriteContext&) {}
};

/// Services the containment server exposes to policies and rewrite
/// handlers. ContainmentServer is the production implementation; tests
/// and benches plug an InlinePolicyServices with just the pieces they
/// need. This replaces PolicyEnv's former bag of loose std::function
/// members.
class PolicyServices {
 public:
  using InmateList = std::vector<std::pair<std::uint16_t, util::Ipv4Addr>>;

  virtual ~PolicyServices() = default;

  /// Enumerate (vlan, internal address) of live inmates in the subfarm
  /// (honeyfarm redirect policies).
  virtual InmateList list_inmates() { return {}; }
  /// Whether list_inmates() is backed by a real enumerator (lets a
  /// policy distinguish "no enumerator wired" from "no inmates yet").
  [[nodiscard]] virtual bool can_list_inmates() const { return false; }
  /// Next auto-infection sample for a VLAN (advances the batch cursor).
  virtual std::optional<std::string> next_sample(std::uint16_t vlan) {
    (void)vlan;
    return std::nullopt;
  }
  /// Report a served infection (name + payload MD5) to the event stream.
  virtual void report_infection(std::uint16_t vlan, const std::string& name,
                                const std::string& md5) {
    (void)vlan;
    (void)name;
    (void)md5;
  }
  /// Send a small out-of-band UDP datagram from the containment server
  /// (used to push original-destination hints to the banner-grabbing
  /// SMTP sink).
  virtual void send_udp(util::Endpoint to, const std::string& message) {
    (void)to;
    (void)message;
  }
  /// Push a freshly compiled policy table toward the gateway's routers
  /// (shim wire v4). ContainmentServer encodes and transmits the frame;
  /// InlinePolicyServices setups hand the table straight to a router or
  /// capture it for assertions. The default discards it, so policy-side
  /// code may publish unconditionally.
  virtual void publish_policy_table(const shim::TableSync& table) {
    (void)table;
  }
};

/// Function-backed PolicyServices for tests and programmatic setups:
/// assign only the members you care about, defaults are inert.
class InlinePolicyServices : public PolicyServices {
 public:
  std::function<InmateList()> list_inmates_fn;
  std::function<std::optional<std::string>(std::uint16_t)> next_sample_fn;
  std::function<void(std::uint16_t, const std::string&, const std::string&)>
      report_infection_fn;
  std::function<void(util::Endpoint, const std::string&)> send_udp_fn;
  std::function<void(const shim::TableSync&)> publish_policy_table_fn;

  InmateList list_inmates() override {
    return list_inmates_fn ? list_inmates_fn() : InmateList{};
  }
  [[nodiscard]] bool can_list_inmates() const override {
    return static_cast<bool>(list_inmates_fn);
  }
  std::optional<std::string> next_sample(std::uint16_t vlan) override {
    return next_sample_fn ? next_sample_fn(vlan) : std::nullopt;
  }
  void report_infection(std::uint16_t vlan, const std::string& name,
                        const std::string& md5) override {
    if (report_infection_fn) report_infection_fn(vlan, name, md5);
  }
  void send_udp(util::Endpoint to, const std::string& message) override {
    if (send_udp_fn) send_udp_fn(to, message);
  }
  void publish_policy_table(const shim::TableSync& table) override {
    if (publish_policy_table_fn) publish_policy_table_fn(table);
  }
};

/// Environment handed to policies at construction: where the subfarm's
/// services live, the sample library for auto-infection, a deterministic
/// RNG, and the PolicyServices backend (normally the containment server;
/// nullptr degrades every service call to an inert default).
struct PolicyEnv {
  PolicyEnv() = default;
  /// Compatibility constructor for tests: wire a services backend
  /// directly (the caller keeps ownership and must outlive the env).
  explicit PolicyEnv(PolicyServices& services_backend)
      : backend(&services_backend) {}

  /// Service locations from the configuration file ("Autoinfect",
  /// "BannerSmtpSink", ...), keyed by section name, lowercase.
  std::map<std::string, util::Endpoint> services;
  SampleLibrary* samples = nullptr;
  util::Rng* rng = nullptr;
  PolicyServices* backend = nullptr;

  [[nodiscard]] PolicyServices::InmateList list_inmates() const {
    return backend ? backend->list_inmates() : PolicyServices::InmateList{};
  }
  [[nodiscard]] bool can_list_inmates() const {
    return backend && backend->can_list_inmates();
  }
  [[nodiscard]] std::optional<std::string> next_sample(
      std::uint16_t vlan) const {
    return backend ? backend->next_sample(vlan) : std::nullopt;
  }
  void report_infection(std::uint16_t vlan, const std::string& name,
                        const std::string& md5) const {
    if (backend) backend->report_infection(vlan, name, md5);
  }
  void send_udp(util::Endpoint to, const std::string& message) const {
    if (backend) backend->send_udp(to, message);
  }

  [[nodiscard]] util::Endpoint service(const std::string& name) const;
  [[nodiscard]] bool has_service(const std::string& name) const;
};

/// Base class of all containment policies. The default behaviour is the
/// paper's recommended starting stance: default-deny everything.
class Policy {
 public:
  explicit Policy(std::string name) : name_(std::move(name)) {}
  virtual ~Policy() = default;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Endpoint-control decision for a new flow. Default: drop.
  virtual Decision decide(const FlowInfo& info);

  /// For kRewrite decisions: produce the content-control handler.
  /// Returning nullptr degrades the flow to a drop.
  virtual std::unique_ptr<RewriteHandler> make_rewrite_handler(
      const FlowInfo& info);

  /// For kRewrite decisions on UDP flows: transform/answer one inmate
  /// datagram (e.g. DNS impersonation). Returning nullopt sends no
  /// response datagram.
  virtual std::optional<std::vector<std::uint8_t>> rewrite_udp(
      const FlowInfo& info, std::span<const std::uint8_t> payload);

  /// Compile this policy's decide() logic into flat match-action rules
  /// for the in-gateway policy table. A compilable policy returns the
  /// rules covering *every* flow it could see — arms that must stay on
  /// the containment server (REWRITE proxies, side-effecting branches
  /// like sink hints, per-flow state) compile to kFallback rules so the
  /// shim path still handles them. Returning nullopt (the default)
  /// declares the whole policy non-compilable: the server emits a
  /// single catch-all fallback for its binding. The compiled actions,
  /// policy names, and annotations must be byte-identical to what
  /// decide() would produce — the differential harness
  /// (tests/policy_diff_test.cc) enforces this equivalence.
  ///
  /// VLAN range and priority are stamped by the containment server per
  /// binding; compile() leaves them at defaults.
  [[nodiscard]] virtual std::optional<std::vector<shim::TableRule>> compile()
      const {
    return std::nullopt;
  }

 private:
  std::string name_;
};

/// Global policy registry ("Decider = Rustock" in the configuration file
/// resolves through here). Built-in policies self-register.
class PolicyRegistry {
 public:
  using Factory = std::function<std::shared_ptr<Policy>(const PolicyEnv&)>;

  static PolicyRegistry& instance();

  void register_policy(const std::string& name, Factory factory);
  [[nodiscard]] std::shared_ptr<Policy> create(const std::string& name,
                                               const PolicyEnv& env) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  std::map<std::string, Factory> factories_;
};

/// Ensures the built-in policy set (containment/policies.cc) is
/// registered; call before resolving policies by name.
void register_builtin_policies();

}  // namespace gq::cs

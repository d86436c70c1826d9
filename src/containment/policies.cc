#include "containment/policies.h"

#include "containment/handlers.h"
#include "services/dns.h"
#include "util/glob.h"
#include "util/log.h"
#include "util/strings.h"

namespace gq::cs {

namespace {

// Table-rule construction helpers for the compile() passes. Every
// compiled rule must reproduce decide()'s verdict, annotation, and
// target byte-for-byte — the differential harness
// (tests/policy_diff_test.cc) replays identical traffic through
// table-on and table-off farms and asserts identical verdict streams.

/// A rule matching one exact destination port on any address/protocol
/// (the builtin policies switch on info.dst().port alone, without
/// narrowing the protocol).
shim::TableRule port_rule(std::uint16_t port, shim::TableAction action,
                          std::string annotation = "") {
  shim::TableRule rule;
  rule.port_first = port;
  rule.port_last = port;
  rule.action = action;
  rule.annotation = std::move(annotation);
  return rule;
}

/// A port arm that must stay on the containment server.
shim::TableRule fallback_port(std::uint16_t port) {
  return port_rule(port, shim::TableAction::kFallback);
}

/// A catch-all rule (any VLAN in the binding, any address, any port).
shim::TableRule catch_all(shim::TableAction action,
                          std::string annotation = "") {
  shim::TableRule rule;
  rule.action = action;
  rule.annotation = std::move(annotation);
  return rule;
}

}  // namespace

// --- SinkAllPolicy ----------------------------------------------------------

SinkAllPolicy::SinkAllPolicy(const PolicyEnv& env, std::string name)
    : Policy(std::move(name)), env_(env) {}

Decision SinkAllPolicy::to_sink(std::string why) const {
  if (env_.has_service("sink"))
    return Decision::reflect(env_.service("sink"), std::move(why));
  return Decision::drop(std::move(why));
}

Decision SinkAllPolicy::decide(const FlowInfo&) {
  return to_sink("sink containment");
}

shim::TableRule SinkAllPolicy::sink_rule(std::string why) const {
  if (env_.has_service("sink")) {
    auto rule = catch_all(shim::TableAction::kReflect, std::move(why));
    rule.target = env_.service("sink");
    return rule;
  }
  return catch_all(shim::TableAction::kDrop, std::move(why));
}

std::optional<std::vector<shim::TableRule>> SinkAllPolicy::compile() const {
  return std::vector<shim::TableRule>{sink_rule("sink containment")};
}

// --- DefaultDenyPolicy ------------------------------------------------------

std::optional<std::vector<shim::TableRule>> DefaultDenyPolicy::compile()
    const {
  return std::vector<shim::TableRule>{
      catch_all(shim::TableAction::kDrop, "default-deny")};
}

// --- ForwardAllPolicy -------------------------------------------------------

std::optional<std::vector<shim::TableRule>> ForwardAllPolicy::compile()
    const {
  return std::vector<shim::TableRule>{
      catch_all(shim::TableAction::kForward)};
}

// --- SpambotPolicy ----------------------------------------------------------

SpambotPolicy::SpambotPolicy(const PolicyEnv& env, std::string name,
                             std::string smtp_sink_service)
    : SinkAllPolicy(env, std::move(name)),
      smtp_sink_service_(std::move(smtp_sink_service)) {}

bool SpambotPolicy::is_autoinfect(const FlowInfo& info) const {
  return env().has_service("autoinfect") &&
         info.dst() == env().service("autoinfect");
}

util::Endpoint SpambotPolicy::smtp_sink() const {
  if (env().has_service(smtp_sink_service_))
    return env().service(smtp_sink_service_);
  return env().service("sink");
}

void SpambotPolicy::send_sink_hint(const FlowInfo& info) const {
  // Banner-grabbing sinks need the flow's *original* destination (the
  // REFLECT rewrite erases it); push it over the sink's UDP hint channel
  // (sink port + 1) before the reflected flow arrives.
  if (!env().has_service("bannersmtpsink")) return;
  const util::Endpoint sink = env().service("bannersmtpsink");
  env().send_udp(
      {sink.addr, static_cast<std::uint16_t>(sink.port + 1)},
      info.orig().addr.str() + " " + info.dst().str() + "\n");
}

Decision SpambotPolicy::decide(const FlowInfo& info) {
  if (is_autoinfect(info)) return Decision::rewrite("autoinfection");
  if (info.dst().port == 25) {
    send_sink_hint(info);
    return Decision::reflect(smtp_sink(), "SMTP containment");
  }
  return to_sink("sink containment");
}

std::unique_ptr<RewriteHandler> SpambotPolicy::make_rewrite_handler(
    const FlowInfo& info) {
  if (is_autoinfect(info)) return std::make_unique<AutoInfectHandler>(env());
  return nullptr;
}

std::vector<shim::TableRule> SpambotPolicy::spambot_prelude_rules() const {
  std::vector<shim::TableRule> rules;
  // Auto-infection flows take the REWRITE impersonation handler — a /32
  // exact-endpoint fallback keeps them on the server. The /32 outranks
  // any port arm in the table's specificity order, matching decide()'s
  // is_autoinfect-first check.
  if (env().has_service("autoinfect")) {
    const util::Endpoint ai = env().service("autoinfect");
    shim::TableRule rule;
    rule.dst_prefix = ai.addr;
    rule.prefix_len = 32;
    rule.port_first = ai.port;
    rule.port_last = ai.port;
    rule.action = shim::TableAction::kFallback;
    rules.push_back(rule);
  }
  return rules;
}

std::optional<std::vector<shim::TableRule>> SpambotPolicy::compile() const {
  auto rules = spambot_prelude_rules();
  // Port 25 pushes an original-destination hint to the banner sink — a
  // side effect the table cannot reproduce, so SMTP stays shim-path.
  rules.push_back(fallback_port(25));
  rules.push_back(sink_rule("sink containment"));
  return rules;
}

// --- RustockPolicy ----------------------------------------------------------

RustockPolicy::RustockPolicy(const PolicyEnv& env)
    : SpambotPolicy(env, "Rustock", "smtpsink") {}

Decision RustockPolicy::decide(const FlowInfo& info) {
  if (is_autoinfect(info)) return Decision::rewrite("autoinfection");
  switch (info.dst().port) {
    case 443:
      return Decision::forward();  // Encrypted C&C lifeline.
    case 80:
      return Decision::rewrite("C&C filtering");
    case 25:
      send_sink_hint(info);
      return Decision::reflect(smtp_sink(), "simple SMTP containment");
    default:
      return to_sink("sink containment");
  }
}

std::optional<std::vector<shim::TableRule>> RustockPolicy::compile() const {
  auto rules = spambot_prelude_rules();
  rules.push_back(fallback_port(25));  // Sink-hint side effect.
  rules.push_back(port_rule(443, shim::TableAction::kForward));
  rules.push_back(fallback_port(80));  // REWRITE C&C filter.
  rules.push_back(sink_rule("sink containment"));
  return rules;
}

std::unique_ptr<RewriteHandler> RustockPolicy::make_rewrite_handler(
    const FlowInfo& info) {
  if (is_autoinfect(info)) return std::make_unique<AutoInfectHandler>(env());
  // HTTP C&C filter: only narrow, understood C&C requests pass (the §3
  // methodology: never "generally open up HTTP").
  auto request_filter =
      [](svc::HttpRequest request) -> std::optional<svc::HttpRequest> {
    if (request.method == "GET" &&
        (util::starts_with_icase(request.path, "/c2/") ||
         util::starts_with_icase(request.path, "/cfg/")))
      return request;
    return std::nullopt;  // Anything else (e.g. SQL injection) blocked.
  };
  auto response_filter = [](svc::HttpResponse response) { return response; };
  return std::make_unique<HttpFilterHandler>(request_filter, response_filter);
}

// --- GrumPolicy -------------------------------------------------------------

GrumPolicy::GrumPolicy(const PolicyEnv& env)
    : SpambotPolicy(env, "Grum", "bannersmtpsink") {}

Decision GrumPolicy::decide(const FlowInfo& info) {
  if (is_autoinfect(info)) return Decision::rewrite("autoinfection");
  switch (info.dst().port) {
    case 80:
      return Decision::forward();  // HTTP C&C.
    case 25:
      send_sink_hint(info);
      return Decision::reflect(smtp_sink(), "full SMTP containment");
    default:
      return to_sink("sink containment");
  }
}

std::optional<std::vector<shim::TableRule>> GrumPolicy::compile() const {
  auto rules = spambot_prelude_rules();
  rules.push_back(fallback_port(25));  // Sink-hint side effect.
  rules.push_back(port_rule(80, shim::TableAction::kForward));
  rules.push_back(sink_rule("sink containment"));
  return rules;
}

// --- WaledacPolicy ----------------------------------------------------------

WaledacPolicy::WaledacPolicy(const PolicyEnv& env, bool allow_test_smtp)
    : SpambotPolicy(env, allow_test_smtp ? "WaledacTest" : "Waledac",
                    "bannersmtpsink"),
      allow_test_smtp_(allow_test_smtp) {}

Decision WaledacPolicy::decide(const FlowInfo& info) {
  if (is_autoinfect(info)) return Decision::rewrite("autoinfection");
  switch (info.dst().port) {
    case 80:
      return Decision::forward();  // HTTP C&C.
    case 25: {
      if (allow_test_smtp_ && !test_sent_[info.vlan()]) {
        // The 2009 mistake: permit a single seemingly innocuous test
        // message to a real server (§7.1, "mysterious blacklisting").
        test_sent_[info.vlan()] = true;
        return Decision::forward("single test SMTP exchange");
      }
      send_sink_hint(info);
      return Decision::reflect(smtp_sink(), "full SMTP containment");
    }
    default:
      return to_sink("sink containment");
  }
}

std::optional<std::vector<shim::TableRule>> WaledacPolicy::compile() const {
  // The WaledacTest variant carries per-VLAN one-shot state (the single
  // test-message exemption); its port-25 arm depends on history the
  // table cannot see, so the whole policy stays shim-path.
  if (allow_test_smtp_) return std::nullopt;
  auto rules = spambot_prelude_rules();
  rules.push_back(fallback_port(25));  // Sink-hint side effect.
  rules.push_back(port_rule(80, shim::TableAction::kForward));
  rules.push_back(sink_rule("sink containment"));
  return rules;
}

// --- StormPolicy ------------------------------------------------------------

StormPolicy::StormPolicy(const PolicyEnv& env)
    : SpambotPolicy(env, "Storm", "smtpsink") {}

Decision StormPolicy::decide(const FlowInfo& info) {
  if (is_autoinfect(info)) return Decision::rewrite("autoinfection");
  if (info.dst().port == 80) return Decision::forward();  // HTTP C&C relay.
  // Everything else — SMTP, and notably the FTP iframe-injection jobs an
  // upstream botmaster may push through the proxy — lands in the sink.
  return to_sink("sink containment");
}

std::optional<std::vector<shim::TableRule>> StormPolicy::compile() const {
  auto rules = spambot_prelude_rules();
  rules.push_back(port_rule(80, shim::TableAction::kForward));
  rules.push_back(sink_rule("sink containment"));
  return rules;
}

// --- MegaDPolicy ------------------------------------------------------------

MegaDPolicy::MegaDPolicy(const PolicyEnv& env)
    : SpambotPolicy(env, "MegaD", "bannersmtpsink") {}

Decision MegaDPolicy::decide(const FlowInfo& info) {
  if (is_autoinfect(info)) return Decision::rewrite("autoinfection");
  switch (info.dst().port) {
    case 80:
    case 443:
      return Decision::rewrite("C&C observation");
    case 25:
      send_sink_hint(info);
      return Decision::reflect(smtp_sink(), "SMTP containment");
    default:
      return to_sink("sink containment");
  }
}

std::optional<std::vector<shim::TableRule>> MegaDPolicy::compile() const {
  auto rules = spambot_prelude_rules();
  rules.push_back(fallback_port(25));  // Sink-hint side effect.
  rules.push_back(fallback_port(80));   // REWRITE C&C tap.
  rules.push_back(fallback_port(443));  // REWRITE C&C tap.
  rules.push_back(sink_rule("sink containment"));
  return rules;
}

std::unique_ptr<RewriteHandler> MegaDPolicy::make_rewrite_handler(
    const FlowInfo& info) {
  if (is_autoinfect(info)) return std::make_unique<AutoInfectHandler>(env());
  return std::make_unique<PassthroughHandler>();
}

// --- ClickbotPolicy ---------------------------------------------------------

ClickbotPolicy::ClickbotPolicy(const PolicyEnv& env)
    : SpambotPolicy(env, "Clickbot", "smtpsink") {}

Decision ClickbotPolicy::decide(const FlowInfo& info) {
  if (is_autoinfect(info)) return Decision::rewrite("autoinfection");
  if (info.dst().port == 80) return Decision::rewrite("click observation");
  return to_sink("sink containment");
}

std::optional<std::vector<shim::TableRule>> ClickbotPolicy::compile() const {
  auto rules = spambot_prelude_rules();
  rules.push_back(fallback_port(80));  // REWRITE click observer.
  rules.push_back(sink_rule("sink containment"));
  return rules;
}

std::unique_ptr<RewriteHandler> ClickbotPolicy::make_rewrite_handler(
    const FlowInfo& info) {
  if (is_autoinfect(info)) return std::make_unique<AutoInfectHandler>(env());
  return std::make_unique<PassthroughHandler>();
}

// --- DnsSinkholePolicy --------------------------------------------------------

DnsSinkholePolicy::DnsSinkholePolicy(const PolicyEnv& env,
                                     util::Ipv4Addr sinkhole_addr)
    : SinkAllPolicy(env, "DnsSinkhole"), sinkhole_(sinkhole_addr) {}

void DnsSinkholePolicy::add_sinkholed_domain(std::string glob) {
  domains_.push_back(util::to_lower(glob));
}

Decision DnsSinkholePolicy::decide(const FlowInfo& info) {
  if (info.proto == pkt::FlowProto::kUdp && info.dst().port == 53)
    return Decision::rewrite("DNS sinkhole");
  return to_sink("sink containment");
}

std::optional<std::vector<shim::TableRule>> DnsSinkholePolicy::compile()
    const {
  // UDP/53 is the REWRITE impersonation arm; everything else sinks.
  std::vector<shim::TableRule> rules;
  auto dns = fallback_port(53);
  dns.proto = shim::TableRule::kProtoUdp;
  rules.push_back(dns);
  rules.push_back(sink_rule("sink containment"));
  return rules;
}

std::optional<std::vector<std::uint8_t>> DnsSinkholePolicy::rewrite_udp(
    const FlowInfo&, std::span<const std::uint8_t> payload) {
  auto query = svc::DnsMessage::parse(payload);
  if (!query || query->is_response) return std::nullopt;
  ++answered_;
  svc::DnsMessage response = *query;
  response.is_response = true;
  response.answers.clear();
  for (const auto& glob : domains_) {
    if (util::glob_match(glob, query->qname)) {
      response.answers.push_back(sinkhole_);
      ++sinkholed_;
      break;
    }
  }
  response.rcode = response.answers.empty() ? 3 : 0;
  return response.encode();
}

// --- WormFarmPolicy ---------------------------------------------------------

WormFarmPolicy::WormFarmPolicy(const PolicyEnv& env)
    : Policy("WormFarm"), env_(env) {}

Decision WormFarmPolicy::decide(const FlowInfo& info) {
  if (!env_.can_list_inmates()) return Decision::drop("no inmate enumerator");

  // Sticky mapping: a multi-connection exploit against one scanned
  // address must hit the same victim with every connection.
  const auto key = std::make_pair(info.vlan(), info.dst().addr);
  if (auto it = chosen_.find(key); it != chosen_.end()) {
    return Decision::redirect({it->second, info.dst().port},
                              "honeyfarm redirect (sticky)");
  }

  auto inmates = env_.list_inmates();
  // Round-robin over inmates other than the originator, preserving the
  // destination port so the exploit hits the same "service".
  for (std::size_t attempt = 0; attempt < inmates.size(); ++attempt) {
    const auto& [vlan, addr] = inmates[next_ % inmates.size()];
    ++next_;
    if (vlan == info.vlan()) continue;
    chosen_[key] = addr;
    return Decision::redirect({addr, info.dst().port},
                              "honeyfarm redirect vlan " +
                                  std::to_string(vlan));
  }
  return Decision::drop("no redirect victim available");
}

// --- Registration -----------------------------------------------------------

void register_builtin_policies() {
  static bool registered = false;
  if (registered) return;
  registered = true;
  auto& registry = PolicyRegistry::instance();
  registry.register_policy("DefaultDeny", [](const PolicyEnv&) {
    return std::make_shared<DefaultDenyPolicy>();
  });
  registry.register_policy("SinkAll", [](const PolicyEnv& env) {
    return std::make_shared<SinkAllPolicy>(env);
  });
  registry.register_policy("ForwardAll", [](const PolicyEnv&) {
    return std::make_shared<ForwardAllPolicy>();
  });
  registry.register_policy("Rustock", [](const PolicyEnv& env) {
    return std::make_shared<RustockPolicy>(env);
  });
  registry.register_policy("Grum", [](const PolicyEnv& env) {
    return std::make_shared<GrumPolicy>(env);
  });
  registry.register_policy("Waledac", [](const PolicyEnv& env) {
    return std::make_shared<WaledacPolicy>(env, false);
  });
  registry.register_policy("WaledacTest", [](const PolicyEnv& env) {
    return std::make_shared<WaledacPolicy>(env, true);
  });
  registry.register_policy("Storm", [](const PolicyEnv& env) {
    return std::make_shared<StormPolicy>(env);
  });
  registry.register_policy("MegaD", [](const PolicyEnv& env) {
    return std::make_shared<MegaDPolicy>(env);
  });
  registry.register_policy("Clickbot", [](const PolicyEnv& env) {
    return std::make_shared<ClickbotPolicy>(env);
  });
  registry.register_policy("WormFarm", [](const PolicyEnv& env) {
    return std::make_shared<WormFarmPolicy>(env);
  });
}

}  // namespace gq::cs

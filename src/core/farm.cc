#include "core/farm.h"

#include <stdexcept>

#include "util/log.h"
#include "util/strings.h"

namespace gq::core {

namespace {
constexpr const char* kLog = "farm";
constexpr std::uint16_t kCsPort = 6666;
constexpr std::uint16_t kControllerPort = 7777;
constexpr std::uint16_t kMgmtVlan = 2;
constexpr std::uint16_t kExternalVlan = 3;
constexpr util::Duration kLinkLatency = util::microseconds(50);
constexpr util::Duration kUpstreamLatency = util::microseconds(500);
// Switch sizes; each switch's last port is the gateway's uplink.
constexpr std::size_t kInmateSwitchPorts = 72;
constexpr std::size_t kMgmtSwitchPorts = 48;
constexpr std::size_t kExternalSwitchPorts = 48;
}  // namespace

Farm::Farm(FarmOptions options) : Farm(nullptr, options) {}

Farm::Farm(sim::EventLoop& loop, FarmOptions options) : Farm(&loop, options) {}

Farm::Farm(sim::EventLoop* shared_loop, FarmOptions options)
    : options_(options),
      own_loop_(shared_loop != nullptr ? nullptr
                                       : std::make_unique<sim::EventLoop>()),
      loop_(shared_loop != nullptr ? *shared_loop : *own_loop_),
      rng_(options.seed),
      inmate_switch_(loop_, "inmate-sw", kInmateSwitchPorts),
      mgmt_switch_(loop_, "mgmt-sw", kMgmtSwitchPorts),
      external_switch_(loop_, "ext-sw", kExternalSwitchPorts) {
  next_subfarm_index_ = options_.subfarm_index_base;
  gw::GatewayConfig gwc;
  gwc.upstream_addr = options_.gateway_upstream;
  gwc.mgmt_net = options_.mgmt_net;
  gwc.mgmt_addr = options_.mgmt_net.host(1);
  gwc.trace_archive = options_.trace_archive;
  gwc.datapath = options_.datapath;
  gwc.mac_namespace = options_.mac_namespace;
  gateway_ = std::make_unique<gw::Gateway>(loop_, gwc, &telemetry_);
  reporter_.register_trace_tap(&gateway_->upstream_trace());

  // Wire the gateway's three legs: trunk into the inmate switch, access
  // ports on the management and external switches.
  const std::size_t inmate_trunk = kInmateSwitchPorts - 1;
  inmate_switch_.set_trunk_all(inmate_trunk);
  sim::Port::connect(gateway_->inmate_port(), inmate_switch_.port(inmate_trunk),
                     kLinkLatency);

  const std::size_t mgmt_uplink = kMgmtSwitchPorts - 1;
  mgmt_switch_.set_access(mgmt_uplink, kMgmtVlan);
  sim::Port::connect(gateway_->mgmt_port(), mgmt_switch_.port(mgmt_uplink),
                     kLinkLatency);

  const std::size_t ext_uplink = kExternalSwitchPorts - 1;
  external_switch_.set_access(ext_uplink, kExternalVlan);
  sim::Port::connect(gateway_->upstream_port(),
                     external_switch_.port(ext_uplink), kUpstreamLatency);

  // All observability flows through one place: components publish into
  // the farm telemetry bus, the reporter subscribes to it.
  reporter_.attach(telemetry_.bus());
  reporter_.set_blacklist(&cbl_);

  // An inmate that is reverted or terminated invalidates every verdict
  // the gateway cached for its VLAN: the machine (and whatever policy
  // state its flows accumulated) no longer exists. REBOOT keeps the
  // same disk image, so its cached verdicts stay valid.
  telemetry_.bus().subscribe(
      obs::FarmEvent::Kind::kTriggerFired, [this](const obs::FarmEvent& ev) {
        if (ev.trigger_action != "REVERT" && ev.trigger_action != "TERMINATE")
          return;
        for (auto& subfarm : subfarms_) {
          if (subfarm->name() == ev.subfarm) {
            subfarm->router().flush_cache_vlan(ev.vlan);
            break;
          }
        }
      });

  // The inmate controller (§5.5) — conceptually on the gateway; hosted
  // on a dedicated management host here.
  controller_host_ = &add_mgmt_host("inmate-controller");
  controller_ = std::make_unique<inm::InmateController>(*controller_host_,
                                                        kControllerPort);
}

Farm::~Farm() {
  // Pending loop entries can own the last reference to live objects — a
  // TCP retransmit closure holds its connection, whose destructor talks
  // to its host stack. Member destruction runs in reverse declaration
  // order (hosts_ before own_loop_), so drop those closures now, while
  // every device they reference still exists. A shared loop's owner
  // drops them before the first farm on it dies.
  if (own_loop_) own_loop_->drop_pending();
}

net::HostStack& Farm::add_external_host(const std::string& name,
                                        util::Ipv4Addr addr) {
  if (next_external_port_ >= kExternalSwitchPorts - 1)
    throw std::runtime_error("external switch full");
  auto host = std::make_unique<net::HostStack>(
      loop_, name,
      util::MacAddr::local(0x30000u + options_.mac_namespace +
                           static_cast<std::uint32_t>(hosts_.size())),
      next_seed());
  external_switch_.set_access(next_external_port_, kExternalVlan);
  sim::Port::connect(host->nic(), external_switch_.port(next_external_port_),
                     kUpstreamLatency);
  ++next_external_port_;
  // The simulated Internet is one flat on-link world (prefix length 0):
  // external hosts ARP directly for any address; the gateway proxy-ARPs
  // the NATed ranges.
  host->configure({addr, util::Ipv4Net(util::Ipv4Addr(), 0),
                   util::Ipv4Addr(), {}});
  hosts_.push_back(std::move(host));
  return *hosts_.back();
}

net::HostStack& Farm::add_mgmt_host(const std::string& name) {
  if (next_mgmt_port_ >= kMgmtSwitchPorts - 1)
    throw std::runtime_error("management switch full");
  auto host = std::make_unique<net::HostStack>(
      loop_, name,
      util::MacAddr::local(0x40000u + options_.mac_namespace +
                           static_cast<std::uint32_t>(hosts_.size())),
      next_seed());
  mgmt_switch_.set_access(next_mgmt_port_, kMgmtVlan);
  sim::Port::connect(host->nic(), mgmt_switch_.port(next_mgmt_port_),
                     kLinkLatency);
  ++next_mgmt_port_;
  host->configure({next_mgmt_addr(), options_.mgmt_net,
                   options_.mgmt_net.host(1), {}});
  hosts_.push_back(std::move(host));
  return *hosts_.back();
}

util::Ipv4Addr Farm::next_mgmt_addr() {
  return options_.mgmt_net.host(next_mgmt_host_index_++);
}

void Farm::set_link_faults(sim::Port& port, const sim::FaultProfile& profile) {
  // Each direction draws from its own Rng stream seeded off the farm
  // Rng, so two links (or two directions) never share random state.
  port.set_fault_profile(profile, rng_.next());
  port.bind_fault_metrics(telemetry_.metrics(),
                          "net.fault." + port.name() + ".");
  if (sim::Port* peer = port.peer()) {
    peer->set_fault_profile(profile, rng_.next());
    peer->bind_fault_metrics(telemetry_.metrics(),
                             "net.fault." + peer->name() + ".");
  }
}

sim::Port& Farm::claim_external_bridge_port() {
  if (next_external_port_ >= kExternalSwitchPorts - 1)
    throw std::runtime_error("external switch full");
  external_switch_.set_access(next_external_port_, kExternalVlan);
  return external_switch_.port(next_external_port_++);
}

sim::Port& Farm::next_inmate_access_port(std::uint16_t vlan) {
  if (next_inmate_port_ >= kInmateSwitchPorts - 1)
    throw std::runtime_error("inmate switch full");
  inmate_switch_.set_access(next_inmate_port_, vlan);
  return inmate_switch_.port(next_inmate_port_++);
}

Subfarm& Farm::add_subfarm(const std::string& name, SubfarmOptions options) {
  const int index = next_subfarm_index_++;
  if (options.vlan_first == 0) {
    options.vlan_first = next_vlan_base_;
    options.vlan_last = static_cast<std::uint16_t>(next_vlan_base_ + 15);
    next_vlan_base_ = static_cast<std::uint16_t>(next_vlan_base_ + 16);
  }
  if (options.internal_net.prefix_len() == 0) {
    options.internal_net = util::Ipv4Net(
        util::Ipv4Addr(10, static_cast<std::uint8_t>(10 + index), 0, 0), 24);
  }
  if (options.external_net.prefix_len() == 0) {
    options.external_net = util::Ipv4Net(
        util::Ipv4Addr(198, static_cast<std::uint8_t>(18 + index), 0, 0),
        24);
  }

  auto& cs_host = add_mgmt_host(name + "-cs");

  gw::SubfarmConfig sfc;
  sfc.name = name;
  sfc.vlan_first = options.vlan_first;
  sfc.vlan_last = options.vlan_last;
  sfc.internal_net = options.internal_net;
  sfc.external_net = options.external_net;
  sfc.containment_server = {cs_host.addr(), kCsPort};
  sfc.inbound_mode = options.inbound_mode;
  sfc.dns_service = options.dns_service;
  sfc.infra_services = options.infra_services;
  auto& router = gateway_->add_subfarm(sfc);

  auto cs = std::make_unique<cs::ContainmentServer>(
      cs_host, kCsPort, gateway_->config().mgmt_addr);
  cs->set_inmate_controller({controller_host_->addr(), kControllerPort});
  cs->set_telemetry(&telemetry_, name);

  subfarms_.push_back(std::make_unique<Subfarm>(
      *this, router, std::move(cs), cs_host, options.vlan_first,
      options.vlan_last));
  reporter_.register_subfarm(&router);
  reporter_.register_trace_tap(&router.trace());
  GQ_INFO(kLog, "subfarm '%s': VLANs %u-%u internal %s external %s",
          name.c_str(), options.vlan_first, options.vlan_last,
          options.internal_net.str().c_str(),
          options.external_net.str().c_str());
  return *subfarms_.back();
}

// --- Subfarm -----------------------------------------------------------------

Subfarm::Subfarm(Farm& farm, gw::SubfarmRouter& router,
                 std::unique_ptr<cs::ContainmentServer> cs,
                 net::HostStack& cs_host, std::uint16_t vlan_first,
                 std::uint16_t vlan_last)
    : farm_(farm),
      router_(router),
      cs_(std::move(cs)),
      cs_host_(cs_host),
      vlan_pool_(vlan_first, vlan_last) {
  vlan_pool_.bind_metrics(farm_.metrics());
  env_.rng = &farm_.rng();
  env_.samples = &cs_->samples();
  // The router knows who is alive; the containment server layers the
  // rest of PolicyServices on top when configure() chains the backend.
  services_.list_inmates_fn = [this] {
    cs::PolicyServices::InmateList out;
    for (const auto& [vlan, binding] : router_.inmates().bindings())
      out.emplace_back(vlan, binding.internal_addr);
    return out;
  };
  env_.backend = &services_;
}

sinks::CatchAllSink& Subfarm::add_catchall_sink(std::uint16_t port) {
  auto& host = farm_.add_mgmt_host(name() + "-sink");
  catchall_ = std::make_unique<sinks::CatchAllSink>(host, port);
  catchall_->set_telemetry(&farm_.telemetry(), name(), "sink");
  env_.services["sink"] = {host.addr(), port};
  return *catchall_;
}

sinks::SmtpSink& Subfarm::add_smtp_sink(sinks::SmtpSinkConfig config,
                                        std::string service_name) {
  auto& host = farm_.add_mgmt_host(name() + "-" + service_name);
  auto sink = std::make_unique<sinks::SmtpSink>(host, config);
  sink->set_telemetry(&farm_.telemetry(), name(),
                      util::to_lower(service_name));
  env_.services[util::to_lower(service_name)] = {host.addr(), config.port};
  auto& ref = *sink;
  smtp_sinks_[service_name] = std::move(sink);
  return ref;
}

void Subfarm::set_autoinfect(util::Endpoint endpoint) {
  autoinfect_ = endpoint;
  env_.services["autoinfect"] = endpoint;
}

void Subfarm::configure_containment(const std::string& config_text) {
  auto config = cs::ContainmentConfig::parse(config_text);
  last_config_text_ = config_text;
  // Service sections in the file override/add to programmatic ones.
  cs_->configure(config, env_);
  for (auto& extra : extra_cs_) extra->configure(config, env_);
  // A reconfiguration bumps the policy epoch; tell the router directly
  // so cached verdicts from the previous policy set die immediately
  // (not just lazily, when the next response shim carries the epoch).
  router_.on_policy_epoch(cs_->policy_epoch());
  if (auto it = config.services.find("autoinfect");
      it != config.services.end()) {
    autoinfect_ = it->second;
  }
  // [Overload] applies to every cluster member; [FailClosed] configures
  // the gateway side (the router enforces it when the CS is silent).
  if (config.overload) {
    cs::OverloadPolicy policy;
    policy.decision_delay =
        util::milliseconds(config.overload->decision_delay_ms);
    policy.shed_queue_depth =
        static_cast<std::size_t>(config.overload->queue_depth);
    policy.refuse = config.overload->mode == "refuse";
    cs_->set_overload(policy);
    for (auto& extra : extra_cs_) extra->set_overload(policy);
  }
  if (config.fail_closed) {
    shim::Verdict verdict = shim::Verdict::kDrop;
    util::Endpoint reflect_target;
    if (config.fail_closed->verdict == "reflect") {
      const auto& service = config.fail_closed->reflect_service;
      if (auto it = config.services.find(service);
          it != config.services.end()) {
        reflect_target = it->second;
      } else if (auto it2 = env_.services.find(service);
                 it2 != env_.services.end()) {
        reflect_target = it2->second;
      }
      // A REFLECT fail-closed stance without a resolvable sink would
      // silently degrade to DROP in the router; refuse the config
      // instead so the experiment author notices.
      if (reflect_target.addr.is_unspecified())
        throw std::runtime_error(
            "[FailClosed] ReflectService '" + service +
            "' does not name a known service section");
      verdict = shim::Verdict::kReflect;
    }
    router_.set_fail_closed(verdict,
                            util::milliseconds(config.fail_closed->deadline_ms),
                            reflect_target);
  }
}

cs::ContainmentServer& Subfarm::add_containment_server() {
  auto& host = farm_.add_mgmt_host(
      name() + "-cs" + std::to_string(extra_cs_.size() + 2));
  auto extra = std::make_unique<cs::ContainmentServer>(
      host, router_.config().containment_server.port,
      farm_.gateway().config().mgmt_addr);
  extra->set_inmate_controller(farm_.controller().endpoint());
  extra->set_telemetry(&farm_.telemetry(), name());
  router_.add_containment_server(
      {host.addr(), router_.config().containment_server.port});
  // The new member must enforce the same policy state.
  if (!last_config_text_.empty()) {
    extra->configure(cs::ContainmentConfig::parse(last_config_text_), env_);
  }
  extra->set_overload(cs_->overload());
  extra_cs_.push_back(std::move(extra));
  return *extra_cs_.back();
}

void Subfarm::bind_policy(std::uint16_t vlan_first, std::uint16_t vlan_last,
                          std::shared_ptr<cs::Policy> policy) {
  cs_->bind_policy(vlan_first, vlan_last, policy);
  for (auto& extra : extra_cs_)
    extra->bind_policy(vlan_first, vlan_last, policy);
}

void Subfarm::bind_policy_front(std::uint16_t vlan_first,
                                std::uint16_t vlan_last,
                                std::shared_ptr<cs::Policy> policy) {
  cs_->bind_policy_front(vlan_first, vlan_last, policy);
  for (auto& extra : extra_cs_)
    extra->bind_policy_front(vlan_first, vlan_last, policy);
}

std::vector<cs::ContainmentServer*> Subfarm::containment_cluster() {
  std::vector<cs::ContainmentServer*> cluster{cs_.get()};
  for (auto& extra : extra_cs_) cluster.push_back(extra.get());
  return cluster;
}

inm::Inmate& Subfarm::create_inmate(inm::HostingKind hosting,
                                    std::optional<std::uint16_t> vlan) {
  std::uint16_t assigned;
  if (vlan) {
    if (!vlan_pool_.reserve(*vlan))
      throw std::runtime_error("vlan unavailable");
    assigned = *vlan;
  } else {
    auto allocated = vlan_pool_.allocate();
    if (!allocated) throw std::runtime_error("vlan pool exhausted");
    assigned = *allocated;
  }
  inm::InmateConfig config;
  config.vlan = assigned;
  config.hosting = hosting;
  config.autoinfect = autoinfect_;
  config.seed = farm_.next_seed();
  auto inmate = std::make_unique<inm::Inmate>(farm_.loop(), config,
                                              catalog_.factory());
  sim::Port::connect(inmate->host().nic(),
                     farm_.next_inmate_access_port(assigned),
                     util::microseconds(50));
  farm_.controller().register_inmate(*inmate);
  inmate->set_state_handler(
      [this](inm::Inmate& inmate, inm::InmateState, inm::InmateState state) {
        if (state == inm::InmateState::kRunning) {
          cs_->notify_inmate_started(inmate.vlan());
          for (auto& extra : extra_cs_)
            extra->notify_inmate_started(inmate.vlan());
        }
      });
  inmate->power_on();
  inmates_.push_back(std::move(inmate));
  return *inmates_.back();
}

}  // namespace gq::core

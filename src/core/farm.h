// gq::core::Farm — the top-level public API of this library: a complete
// GQ malware farm in one object. It assembles the architecture of the
// paper's Figure 1 (gateway between inmate network, management network,
// and the outside), hosts independent subfarms (Figure 3), wires the
// containment servers, inmate controller, sinks, reporting, and the
// simulated external Internet, and exposes convenience methods for
// building experiments:
//
//   core::Farm farm;
//   auto& web = farm.add_external_host("cc", {Ipv4Addr(50,8,207,91)});
//   auto& sub = farm.add_subfarm("Botfarm", {...});
//   sub.add_catchall_sink();
//   sub.add_smtp_sink({...});
//   sub.set_autoinfect({Ipv4Addr(10,9,8,7), 6543});
//   sub.catalog().register_prototype("grum.*", ...);
//   sub.configure_containment(config_text);
//   sub.create_inmate(inm::HostingKind::kVm);
//   farm.run_for(util::hours(1));
//   std::cout << farm.report();
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "containment/server.h"
#include "extnet/extnet.h"
#include "gateway/gateway.h"
#include "gateway/router.h"
#include "inmate/controller.h"
#include "inmate/inmate.h"
#include "inmate/vlan_pool.h"
#include "malware/factory.h"
#include "net/stack.h"
#include "netsim/event_loop.h"
#include "netsim/vlan_switch.h"
#include "obs/telemetry.h"
#include "report/reporter.h"
#include "sinks/catchall.h"
#include "sinks/smtp_sink.h"

namespace gq::core {

struct FarmOptions {
  std::uint64_t seed = 0x6071;
  util::Ipv4Addr gateway_upstream = util::Ipv4Addr(203, 0, 113, 1);
  util::Ipv4Net mgmt_net{util::Ipv4Addr(10, 3, 0, 0), 16};
  /// Rotation budget for every gateway trace tap (upstream, mgmt,
  /// inmate-ingress, one per subfarm). Defaults keep a few MB per farm.
  trace::ArchiveConfig trace_archive;
  /// Gateway datapath toggles (verdict cache, compiled policy table),
  /// applied to the gateway and resolved into every subfarm router
  /// created under it.
  gw::DatapathOptions datapath;
  /// Offset added to every locally-administered MAC id this farm mints
  /// (gateway legs, external/management hosts). Zero for a standalone
  /// farm; ShardedFarm gives each shard `shard << 20` so L2-bridged
  /// external switches never learn the same MAC from two shards.
  std::uint32_t mac_namespace = 0;
  /// First value of the per-farm subfarm index that seeds the automatic
  /// internal (10.<10+i>/24) and external (198.<18+i>/24) subfarm nets.
  /// ShardedFarm spaces shards apart so every shard's NATed external
  /// ranges are disjoint — required because each gateway proxy-ARPs its
  /// own ranges onto the shared bridged external segment.
  int subfarm_index_base = 0;
};

struct SubfarmOptions {
  std::uint16_t vlan_first = 0;  ///< 0: allocated automatically.
  std::uint16_t vlan_last = 0;
  util::Ipv4Net internal_net;    ///< Default: 10.<n>.0.0/24.
  util::Ipv4Net external_net;    ///< Default: 198.<18+n>.0.0/24.
  gw::InboundMode inbound_mode = gw::InboundMode::kDrop;
  /// Resolver address handed to inmates via DHCP. Flows to it are
  /// contained like any other unless the address is also added to
  /// `infra_services` (the restricted broadcast domain).
  util::Ipv4Addr dns_service;
  std::set<util::Ipv4Addr> infra_services;
};

class Farm;

/// One independent experiment habitat: a packet router over a dedicated
/// VLAN range, its own containment server, sinks, and inmates.
class Subfarm {
 public:
  Subfarm(Farm& farm, gw::SubfarmRouter& router,
          std::unique_ptr<cs::ContainmentServer> cs,
          net::HostStack& cs_host, std::uint16_t vlan_first,
          std::uint16_t vlan_last);

  [[nodiscard]] const std::string& name() const {
    return router_.config().name;
  }
  [[nodiscard]] gw::SubfarmRouter& router() { return router_; }
  [[nodiscard]] cs::ContainmentServer& containment() { return *cs_; }
  [[nodiscard]] mal::BehaviorCatalog& catalog() { return catalog_; }
  [[nodiscard]] inm::VlanPool& vlan_pool() { return vlan_pool_; }

  /// Attach a catch-all sink on a fresh management host; registers the
  /// "sink" service for policies.
  sinks::CatchAllSink& add_catchall_sink(std::uint16_t port = 9999);

  /// Attach an SMTP sink; registers under `service_name` ("smtpsink" or
  /// "bannersmtpsink").
  sinks::SmtpSink& add_smtp_sink(sinks::SmtpSinkConfig config,
                                 std::string service_name = "smtpsink");

  /// Register the (virtual) auto-infection service endpoint — the
  /// containment server impersonates it via REWRITE (§6.6).
  void set_autoinfect(util::Endpoint endpoint);

  /// Apply a Figure 6 containment configuration file (to every member
  /// of the containment-server cluster).
  void configure_containment(const std::string& config_text);

  /// Grow the containment-server cluster by one member on a fresh
  /// management host (§7.2 scaling). The new member shares the primary
  /// server's sample library and receives subsequent
  /// configure_containment()/bind_policy() calls like the primary.
  cs::ContainmentServer& add_containment_server();

  /// Bind a policy instance on every cluster member.
  void bind_policy(std::uint16_t vlan_first, std::uint16_t vlan_last,
                   std::shared_ptr<cs::Policy> policy);

  /// Bind with precedence over every existing binding (first-match
  /// order): the per-job tenant-profile path.
  void bind_policy_front(std::uint16_t vlan_first, std::uint16_t vlan_last,
                         std::shared_ptr<cs::Policy> policy);

  /// All cluster members (primary first).
  [[nodiscard]] std::vector<cs::ContainmentServer*> containment_cluster();

  /// Create (and power on) an inmate; VLAN allocated from the pool
  /// unless given.
  inm::Inmate& create_inmate(inm::HostingKind hosting,
                             std::optional<std::uint16_t> vlan = {});

  [[nodiscard]] const std::vector<std::unique_ptr<inm::Inmate>>& inmates()
      const {
    return inmates_;
  }
  [[nodiscard]] sinks::SmtpSink* smtp_sink(const std::string& service) {
    auto it = smtp_sinks_.find(service);
    return it == smtp_sinks_.end() ? nullptr : it->second.get();
  }

  /// The PolicyEnv used when configuring containment (accumulates
  /// service registrations).
  [[nodiscard]] cs::PolicyEnv& policy_env() { return env_; }

  /// The management host the primary containment server runs on — the
  /// handle fault experiments use to impair or sever the CS link.
  [[nodiscard]] net::HostStack& containment_host() { return cs_host_; }

 private:
  friend class Farm;

  Farm& farm_;
  gw::SubfarmRouter& router_;
  std::unique_ptr<cs::ContainmentServer> cs_;
  std::vector<std::unique_ptr<cs::ContainmentServer>> extra_cs_;
  std::string last_config_text_;
  net::HostStack& cs_host_;
  inm::VlanPool vlan_pool_;
  mal::BehaviorCatalog catalog_;
  cs::InlinePolicyServices services_;  // env_.backend; enumerates inmates.
  cs::PolicyEnv env_;
  std::unique_ptr<sinks::CatchAllSink> catchall_;
  std::map<std::string, std::unique_ptr<sinks::SmtpSink>> smtp_sinks_;
  std::optional<util::Endpoint> autoinfect_;
  std::vector<std::unique_ptr<inm::Inmate>> inmates_;
};

class Farm {
 public:
  explicit Farm(FarmOptions options = {});
  ~Farm();

  Farm(const Farm&) = delete;
  Farm& operator=(const Farm&) = delete;

  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] gw::Gateway& gateway() { return *gateway_; }
  [[nodiscard]] rep::Reporter& reporter() { return reporter_; }

  /// The farm-wide telemetry hub: every component (gateway routers,
  /// containment servers, sinks) publishes FarmEvents into its bus and
  /// counts into its metrics registry; the reporter is a subscriber.
  [[nodiscard]] obs::Telemetry& telemetry() { return telemetry_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() {
    return telemetry_.metrics();
  }
  [[nodiscard]] ext::Cbl& cbl() { return cbl_; }
  [[nodiscard]] inm::InmateController& controller() { return *controller_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  /// Add a host to the simulated external Internet.
  net::HostStack& add_external_host(const std::string& name,
                                    util::Ipv4Addr addr);

  /// Add a host to the management/control network (address assigned
  /// from the management range).
  net::HostStack& add_mgmt_host(const std::string& name);

  /// Create a subfarm (VLAN range auto-allocated when not specified).
  Subfarm& add_subfarm(const std::string& name, SubfarmOptions options = {});

  [[nodiscard]] const std::vector<std::unique_ptr<Subfarm>>& subfarms()
      const {
    return subfarms_;
  }

  /// Advance simulated time.
  void run_for(util::Duration d) { loop_.run_for(d); }

  /// Apply a fault profile to BOTH directions of the link attached to
  /// `port` (the port and its peer). Each direction gets an independent
  /// fault-Rng seed drawn from the farm seed, and each direction's
  /// fault counters are mirrored into the farm metrics registry under
  /// "net.fault.<port-name>.". Pass an all-defaults profile to heal the
  /// link again.
  void set_link_faults(sim::Port& port, const sim::FaultProfile& profile);

  /// Render the current Figure 7 style activity report.
  [[nodiscard]] std::string report() { return reporter_.render(loop_.now()); }

  // --- Internal wiring helpers used by Subfarm ------------------------

  sim::Port& next_inmate_access_port(std::uint16_t vlan);
  util::Ipv4Addr next_mgmt_addr();
  std::uint64_t next_seed() { return rng_.next(); }

  /// Claim a free external-switch access port for cross-shard L2
  /// bridging (ShardedFarm connects it to a peer shard through the
  /// lockstep coordinator). The caller installs the bridge sink.
  sim::Port& claim_external_bridge_port();

 private:
  FarmOptions options_;
  sim::EventLoop loop_;
  util::Rng rng_;
  sim::VlanSwitch inmate_switch_;
  sim::VlanSwitch mgmt_switch_;
  sim::VlanSwitch external_switch_;
  obs::Telemetry telemetry_;  // Declared before its publishers below.
  std::unique_ptr<gw::Gateway> gateway_;
  rep::Reporter reporter_;
  ext::Cbl cbl_;
  std::vector<std::unique_ptr<net::HostStack>> hosts_;
  net::HostStack* controller_host_ = nullptr;
  std::unique_ptr<inm::InmateController> controller_;
  std::vector<std::unique_ptr<Subfarm>> subfarms_;
  std::size_t next_inmate_port_ = 0;
  std::size_t next_mgmt_port_ = 0;
  std::size_t next_external_port_ = 0;
  std::uint32_t next_mgmt_host_index_ = 10;
  std::uint16_t next_vlan_base_ = 16;
  int next_subfarm_index_ = 0;
};

}  // namespace gq::core

// The inmate controller (paper §5.5, §6.3): a simple message receiver,
// hosted on the gateway/management side, that interprets life-cycle
// control instructions from the containment servers. The containment
// server needs only a VLAN ID to identify the target of an action; the
// controller understands the inmate hosting infrastructure and abstracts
// the physical details (which VMM, virtualized or raw iron).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "inmate/inmate.h"
#include "net/stack.h"

namespace gq::obs {
class Counter;
class MetricsRegistry;
}  // namespace gq::obs

namespace gq::inm {

class InmateController {
 public:
  struct Action {
    std::string verb;
    std::uint16_t vlan = 0;
    bool applied = false;
  };
  using ActionHandler = std::function<void(const Action&)>;

  /// Listens for "revert <vlan>\n" / "reboot <vlan>\n" /
  /// "terminate <vlan>\n" text messages on `port` (UDP).
  InmateController(net::HostStack& stack, std::uint16_t port);

  /// Register an inmate in the inventory ("at startup, the controller
  /// scans the VMMs ... to assemble an inventory", §6.3).
  void register_inmate(Inmate& inmate);

  [[nodiscard]] Inmate* by_vlan(std::uint16_t vlan);
  [[nodiscard]] std::size_t inventory_size() const { return inmates_.size(); }
  [[nodiscard]] std::uint64_t actions_received() const { return actions_; }
  [[nodiscard]] util::Endpoint endpoint() const {
    return {stack_.addr(), port_};
  }

  void set_action_handler(ActionHandler handler) {
    on_action_ = std::move(handler);
  }

  /// Apply an action directly (also used by the message handler).
  bool apply(const std::string& verb, std::uint16_t vlan);

 private:
  void handle_message(const std::string& text);

  net::HostStack& stack_;
  std::uint16_t port_;
  std::shared_ptr<net::UdpSocket> sock_;
  std::map<std::uint16_t, Inmate*> inmates_;
  std::uint64_t actions_ = 0;
  ActionHandler on_action_;
};

/// Raw Iron Controller (paper §6.4): drives the network-controlled power
/// sequencer and PXE reimaging of the identically configured physical
/// systems. In this reproduction the timing model lives in the raw-iron
/// HostingProfile; this controller adds the fleet-level operations (the
/// "slightly slower but simultaneous" local-partition restore) and
/// bookkeeping.
class RawIronController {
 public:
  /// Surface fleet bookkeeping through obs::: the `inmate.pool.reimages`
  /// counter tracks every reimage issued after the bind (resolve-once,
  /// same contract as VlanPool::bind_metrics).
  void bind_metrics(obs::MetricsRegistry& metrics);

  void register_system(Inmate& inmate);

  /// Reimage one system over the network (~6 min, modelled by the
  /// inmate's revert).
  void reimage(std::uint16_t vlan);

  /// Restore every system from the hidden local partition — slower
  /// (~10 min) but proceeds on all systems simultaneously (§6.4).
  void reimage_all();

  [[nodiscard]] std::size_t fleet_size() const { return systems_.size(); }
  [[nodiscard]] std::uint64_t reimages() const { return reimages_; }

 private:
  std::map<std::uint16_t, Inmate*> systems_;
  std::uint64_t reimages_ = 0;
  obs::Counter* reimages_counter_ = nullptr;
};

}  // namespace gq::inm

// Learning 802.1Q Ethernet switch. GQ isolates each inmate on its own
// VLAN (§5.2): physical and virtual switches enforce a per-inmate VLAN
// assignment, and the gateway attaches over a trunk carrying every
// inmate VLAN. This switch implements exactly that: access ports strip/
// add tags for their configured VID, trunk ports carry tagged frames for
// an allowed VID set, and MAC learning is scoped per VLAN so crosstalk
// between VLANs is impossible at layer 2.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/port.h"
#include "util/addr.h"

namespace gq::sim {

class VlanSwitch {
 public:
  /// A switch with `num_ports` ports, all initially unconfigured (frames
  /// on unconfigured ports are dropped).
  VlanSwitch(EventLoop& loop, std::string name, std::size_t num_ports);

  Port& port(std::size_t index) { return *ports_.at(index); }
  [[nodiscard]] std::size_t num_ports() const { return ports_.size(); }

  /// Configure a port as an access port for `vlan`: untagged frames in,
  /// untagged frames out, all traffic confined to that VLAN.
  void set_access(std::size_t index, std::uint16_t vlan);

  /// Configure a port as a trunk carrying all VLANs (tagged frames).
  void set_trunk_all(std::size_t index);

  /// Configure a port as a trunk carrying only the listed VLANs.
  void set_trunk(std::size_t index, std::set<std::uint16_t> allowed);

  /// Forget one port's learned MAC entries.
  void flush_learning_for_port(std::size_t index);

  [[nodiscard]] std::uint64_t dropped_frames() const { return dropped_; }

 private:
  enum class Mode { kUnconfigured, kAccess, kTrunk };
  struct PortConfig {
    Mode mode = Mode::kUnconfigured;
    std::uint16_t access_vlan = 0;
    bool trunk_all = false;
    std::set<std::uint16_t> trunk_vlans;

    [[nodiscard]] bool carries(std::uint16_t vlan) const;
  };

  void handle_frame(std::size_t ingress, Frame frame);
  /// Deliver `untagged` out of port `index`, re-tagging in place for
  /// trunks. Takes the buffer by value: the single-target forward path
  /// moves the ingress buffer straight through; only flooding copies.
  void egress(std::size_t index, std::uint16_t vlan,
              std::vector<std::uint8_t> untagged);

  struct TableKey {
    std::uint16_t vlan;
    util::MacAddr mac;
    friend bool operator==(const TableKey&, const TableKey&) = default;
  };
  struct TableKeyHash {
    std::size_t operator()(const TableKey& k) const noexcept {
      return std::hash<util::MacAddr>{}(k.mac) ^
             (std::size_t{k.vlan} * 0x9E3779B97F4A7C15ull);
    }
  };

  EventLoop& loop_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  std::vector<PortConfig> configs_;
  // Learning table: (vlan, mac) -> port index.
  std::unordered_map<TableKey, std::size_t, TableKeyHash> table_;
  std::uint64_t dropped_ = 0;
};

}  // namespace gq::sim

#include "netsim/vlan_switch.h"

#include <cstring>
#include <utility>

#include "packet/frame_view.h"
#include "packet/headers.h"

namespace gq::sim {

namespace {

// Minimal in-place frame inspection: offsets into the standard Ethernet
// header. Full decoding is unnecessary (and wasteful) on the switching
// fast path.
constexpr std::size_t kDstOffset = 0;
constexpr std::size_t kSrcOffset = 6;
constexpr std::size_t kMinFrame = 14;

util::MacAddr mac_at(const std::vector<std::uint8_t>& bytes,
                     std::size_t offset) {
  std::array<std::uint8_t, 6> arr;
  std::memcpy(arr.data(), bytes.data() + offset, 6);
  return util::MacAddr(arr);
}

}  // namespace

bool VlanSwitch::PortConfig::carries(std::uint16_t vlan) const {
  switch (mode) {
    case Mode::kUnconfigured:
      return false;
    case Mode::kAccess:
      return access_vlan == vlan;
    case Mode::kTrunk:
      return trunk_all || trunk_vlans.count(vlan) > 0;
  }
  return false;
}

VlanSwitch::VlanSwitch(EventLoop& loop, std::string name,
                       std::size_t num_ports)
    : loop_(loop), name_(std::move(name)), configs_(num_ports) {
  ports_.reserve(num_ports);
  for (std::size_t i = 0; i < num_ports; ++i) {
    ports_.push_back(
        std::make_unique<Port>(loop_, name_ + ".p" + std::to_string(i)));
    ports_.back()->set_rx(
        [this, i](Frame frame) { handle_frame(i, std::move(frame)); });
  }
}

void VlanSwitch::set_access(std::size_t index, std::uint16_t vlan) {
  configs_.at(index) = PortConfig{Mode::kAccess, vlan, false, {}};
  flush_learning_for_port(index);
}

void VlanSwitch::set_trunk_all(std::size_t index) {
  configs_.at(index) = PortConfig{Mode::kTrunk, 0, true, {}};
  flush_learning_for_port(index);
}

void VlanSwitch::set_trunk(std::size_t index,
                           std::set<std::uint16_t> allowed) {
  configs_.at(index) = PortConfig{Mode::kTrunk, 0, false, std::move(allowed)};
  flush_learning_for_port(index);
}

void VlanSwitch::flush_learning_for_port(std::size_t index) {
  for (auto it = table_.begin(); it != table_.end();) {
    if (it->second == index)
      it = table_.erase(it);
    else
      ++it;
  }
}

void VlanSwitch::handle_frame(std::size_t ingress, Frame frame) {
  if (frame.bytes.size() < kMinFrame) {
    ++dropped_;
    return;
  }
  const PortConfig& in_cfg = configs_[ingress];
  std::uint16_t vlan;
  // Normalize the ingress buffer to untagged form in place; the buffer
  // is then moved straight through to the egress port (copied only when
  // flooding to multiple ports).
  std::vector<std::uint8_t> untagged = std::move(frame.bytes);
  const auto tag = pkt::vlan_vid_of(untagged);
  switch (in_cfg.mode) {
    case Mode::kUnconfigured:
      ++dropped_;
      return;
    case Mode::kAccess:
      if (tag) {  // Tagged frames on access ports are invalid.
        ++dropped_;
        return;
      }
      vlan = in_cfg.access_vlan;
      break;
    case Mode::kTrunk:
      if (!tag) {  // No native VLAN on trunks in this switch.
        ++dropped_;
        return;
      }
      vlan = *tag;
      if (!in_cfg.carries(vlan)) {
        ++dropped_;
        return;
      }
      pkt::strip_vlan_tag(untagged);
      break;
    default:
      ++dropped_;
      return;
  }

  const util::MacAddr src = mac_at(untagged, kSrcOffset);
  const util::MacAddr dst = mac_at(untagged, kDstOffset);
  if (!src.is_multicast()) table_[{vlan, src}] = ingress;

  if (!dst.is_multicast()) {
    if (auto it = table_.find({vlan, dst}); it != table_.end()) {
      if (it->second != ingress) egress(it->second, vlan, std::move(untagged));
      return;
    }
  }
  // Broadcast / unknown unicast: flood within the VLAN.
  std::size_t last = ports_.size();
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (i == ingress || !configs_[i].carries(vlan)) continue;
    if (last != ports_.size()) egress(last, vlan, untagged);
    last = i;
  }
  if (last != ports_.size()) egress(last, vlan, std::move(untagged));
}

void VlanSwitch::egress(std::size_t index, std::uint16_t vlan,
                        std::vector<std::uint8_t> untagged) {
  const PortConfig& cfg = configs_[index];
  if (cfg.mode == Mode::kTrunk) pkt::insert_vlan_tag(untagged, vlan);
  ports_[index]->transmit(Frame{std::move(untagged)});
}

}  // namespace gq::sim

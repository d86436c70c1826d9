#include "inmate/controller.h"

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/log.h"
#include "util/strings.h"

namespace gq::inm {

namespace {
constexpr const char* kLog = "controller";
}

InmateController::InmateController(net::HostStack& stack, std::uint16_t port)
    : stack_(stack), port_(port) {
  sock_ = stack_.udp_open(port_);
  sock_->on_datagram = [this](util::Endpoint,
                              std::vector<std::uint8_t> data) {
    handle_message(util::to_string(data));
  };
}

void InmateController::register_inmate(Inmate& inmate) {
  inmates_[inmate.vlan()] = &inmate;
}

Inmate* InmateController::by_vlan(std::uint16_t vlan) {
  auto it = inmates_.find(vlan);
  return it == inmates_.end() ? nullptr : it->second;
}

void InmateController::handle_message(const std::string& text) {
  for (const auto& line : util::split(text, '\n')) {
    auto parts = util::split_ws(line);
    if (parts.size() != 2) continue;
    auto vlan = util::parse_int(parts[1]);
    if (!vlan || *vlan < 0 || *vlan > 4095) continue;
    ++actions_;
    const bool applied =
        apply(parts[0], static_cast<std::uint16_t>(*vlan));
    if (on_action_)
      on_action_(Action{parts[0], static_cast<std::uint16_t>(*vlan),
                        applied});
  }
}

bool InmateController::apply(const std::string& verb, std::uint16_t vlan) {
  Inmate* inmate = by_vlan(vlan);
  if (!inmate) {
    GQ_WARN(kLog, "action '%s' for unknown vlan %u", verb.c_str(), vlan);
    return false;
  }
  GQ_INFO(kLog, "applying %s to vlan %u (%s)", verb.c_str(), vlan,
          hosting_kind_name(inmate->config().hosting));
  if (verb == "revert") {
    inmate->revert();
  } else if (verb == "reboot") {
    inmate->reboot();
  } else if (verb == "terminate") {
    inmate->power_off();
  } else if (verb == "start") {
    inmate->power_on();
  } else {
    GQ_WARN(kLog, "unknown action '%s'", verb.c_str());
    return false;
  }
  return true;
}

void RawIronController::bind_metrics(obs::MetricsRegistry& metrics) {
  if (reimages_counter_) return;
  reimages_counter_ = &metrics.counter("inmate.pool.reimages");
}

void RawIronController::register_system(Inmate& inmate) {
  systems_[inmate.vlan()] = &inmate;
}

void RawIronController::reimage(std::uint16_t vlan) {
  auto it = systems_.find(vlan);
  if (it == systems_.end()) return;
  ++reimages_;
  if (reimages_counter_) reimages_counter_->inc();
  it->second->revert();
}

void RawIronController::reimage_all() {
  // The local-partition restore runs on every box at once (§6.4); each
  // system's revert proceeds in parallel on the event loop.
  for (auto& [vlan, inmate] : systems_) {
    ++reimages_;
    if (reimages_counter_) reimages_counter_->inc();
    inmate->revert();
  }
}

}  // namespace gq::inm

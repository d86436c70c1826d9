#include "gateway/arp_proxy.h"

#include <algorithm>

#include "packet/frame_view.h"
#include "util/log.h"

namespace gq::gw {

namespace {
constexpr const char* kLog = "gw.arp";
constexpr int kMaxAttempts = 3;
constexpr util::Duration kRetryDelay = util::milliseconds(500);
}  // namespace

ArpProxy::ArpProxy(sim::EventLoop& loop, util::MacAddr my_mac,
                   util::Ipv4Addr my_addr, EmitFrame emit)
    : loop_(loop), my_mac_(my_mac), my_addr_(my_addr), emit_(std::move(emit)) {}

void ArpProxy::add_proxy_range(util::Ipv4Net net) {
  proxy_ranges_.push_back(net);
}

void ArpProxy::add_owned(util::Ipv4Addr addr) { owned_.push_back(addr); }

bool ArpProxy::owns(util::Ipv4Addr addr) const {
  if (addr == my_addr_) return true;
  if (std::find(owned_.begin(), owned_.end(), addr) != owned_.end())
    return true;
  for (const auto& net : proxy_ranges_)
    if (net.contains(addr)) return true;
  return false;
}

void ArpProxy::handle(const pkt::ArpMessage& arp) {
  if (!arp.sender_ip.is_unspecified()) {
    cache_[arp.sender_ip] = arp.sender_mac;
    if (auto it = pending_.find(arp.sender_ip); it != pending_.end()) {
      auto waiters = std::move(it->second.waiters);
      pending_.erase(it);
      for (auto& waiter : waiters) waiter(arp.sender_mac);
    }
  }
  if (arp.op == pkt::ArpMessage::Op::kRequest && owns(arp.target_ip)) {
    // Answer as the queried address.
    emit_(pkt::build_arp({.dst = arp.sender_mac, .src = my_mac_},
                         {pkt::ArpMessage::Op::kReply, my_mac_, arp.target_ip,
                          arp.sender_mac, arp.sender_ip}));
  }
}

void ArpProxy::resolve(util::Ipv4Addr next_hop,
                       std::function<void(util::MacAddr)> send) {
  if (auto it = cache_.find(next_hop); it != cache_.end()) {
    send(it->second);
    return;
  }
  auto& pending = pending_[next_hop];
  pending.waiters.push_back(std::move(send));
  if (pending.waiters.size() > 1) return;
  pending.attempts = 0;
  send_request(next_hop);
}

void ArpProxy::send_request(util::Ipv4Addr target) {
  auto it = pending_.find(target);
  if (it == pending_.end()) return;
  if (it->second.attempts++ >= kMaxAttempts) {
    GQ_WARN(kLog, "ARP for %s failed; dropping %zu queued sends",
            target.str().c_str(), it->second.waiters.size());
    pending_.erase(it);
    return;
  }
  emit_(pkt::build_arp({.dst = util::MacAddr::broadcast(), .src = my_mac_},
                       {.op = pkt::ArpMessage::Op::kRequest,
                        .sender_mac = my_mac_,
                        .sender_ip = my_addr_,
                        .target_ip = target}));
  loop_.schedule_in(kRetryDelay, [this, target] {
    if (pending_.count(target)) send_request(target);
  });
}

void ArpProxy::learn(util::Ipv4Addr addr, util::MacAddr mac) {
  cache_[addr] = mac;
}

}  // namespace gq::gw

// ARP agent for one gateway interface. The gateway is not a HostStack —
// it forwards raw frames — but it still has to answer ARP for the
// addresses it owns (including proxy-ARP for whole NATed global ranges
// on the upstream side) and resolve next-hop MACs for frames it emits.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "netsim/event_loop.h"
#include "packet/headers.h"
#include "util/addr.h"

namespace gq::gw {

class ArpProxy {
 public:
  /// `emit` transmits a ready Ethernet frame out of the interface this
  /// agent serves (the owner adds VLAN tagging if required).
  using EmitFrame = std::function<void(std::vector<std::uint8_t>)>;

  ArpProxy(sim::EventLoop& loop, util::MacAddr my_mac, util::Ipv4Addr my_addr,
           EmitFrame emit);

  /// Also claim every address in `net` (proxy ARP for NATed inmates).
  void add_proxy_range(util::Ipv4Net net);

  /// Claim a single extra address.
  void add_owned(util::Ipv4Addr addr);

  /// Process an inbound ARP message on this interface: answers requests
  /// for owned addresses and learns peer mappings.
  void handle(const pkt::ArpMessage& arp);

  /// Resolve `next_hop` and then invoke `send(mac)`; queues and emits an
  /// ARP request on a miss (bounded retries; queued sends are dropped if
  /// resolution fails).
  void resolve(util::Ipv4Addr next_hop,
               std::function<void(util::MacAddr)> send);

  /// Pre-seed the cache (e.g. learned from DHCP snooping).
  void learn(util::Ipv4Addr addr, util::MacAddr mac);

  /// Probe the resolution cache without side effects (the gateway's
  /// egress transmits at once on a hit and queues through `resolve` on
  /// a miss).
  [[nodiscard]] std::optional<util::MacAddr> cached(
      util::Ipv4Addr next_hop) const {
    auto it = cache_.find(next_hop);
    if (it == cache_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] util::MacAddr mac() const { return my_mac_; }
  [[nodiscard]] util::Ipv4Addr addr() const { return my_addr_; }

 private:
  struct Pending {
    std::vector<std::function<void(util::MacAddr)>> waiters;
    int attempts = 0;
  };

  [[nodiscard]] bool owns(util::Ipv4Addr addr) const;
  void send_request(util::Ipv4Addr target);

  sim::EventLoop& loop_;
  util::MacAddr my_mac_;
  util::Ipv4Addr my_addr_;
  EmitFrame emit_;
  std::vector<util::Ipv4Net> proxy_ranges_;
  std::vector<util::Ipv4Addr> owned_;
  std::map<util::Ipv4Addr, util::MacAddr> cache_;
  std::map<util::Ipv4Addr, Pending> pending_;
};

}  // namespace gq::gw

// HostStack: the network stack of one simulated machine. Owns the NIC
// port, speaks ARP, routes via a default gateway, demultiplexes IPv4 to
// TCP connections / UDP sockets / ICMP echo, and allocates ephemeral
// ports. Inmates, sink servers, containment servers, infrastructure
// services, and external Internet hosts are all HostStacks; only the GQ
// gateway itself works below this layer, on raw frames.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/tcp.h"
#include "netsim/event_loop.h"
#include "netsim/port.h"
#include "packet/frame_view.h"
#include "packet/headers.h"
#include "util/addr.h"
#include "util/rng.h"

namespace gq::net {

/// IPv4 configuration of a host (static or learned via DHCP).
struct Ipv4Config {
  util::Ipv4Addr addr;
  util::Ipv4Net subnet;
  util::Ipv4Addr gateway;
  util::Ipv4Addr dns;
};

/// A bound UDP socket. Obtained from HostStack::udp_open().
class UdpSocket {
 public:
  /// Called for each datagram received on the bound port.
  std::function<void(util::Endpoint from, std::vector<std::uint8_t> data)>
      on_datagram;

  UdpSocket(HostStack& stack, std::uint16_t port)
      : stack_(stack), port_(port) {}

  /// Send to a unicast destination (routed normally).
  void send_to(util::Endpoint dst, std::span<const std::uint8_t> payload);

  /// Send a link-local broadcast (255.255.255.255) — used by DHCP before
  /// the host has an address; the source address is 0.0.0.0 when the
  /// stack is unconfigured.
  void send_broadcast(std::uint16_t dst_port,
                      std::span<const std::uint8_t> payload);

  /// Unbind; pending inbound datagrams are dropped.
  void close();

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  HostStack& stack_;
  std::uint16_t port_;
};

class HostStack {
 public:
  using AcceptHandler =
      std::function<void(std::shared_ptr<TcpConnection>)>;

  HostStack(sim::EventLoop& loop, std::string name, util::MacAddr mac,
            std::uint64_t seed);
  ~HostStack();

  HostStack(const HostStack&) = delete;
  HostStack& operator=(const HostStack&) = delete;

  /// The NIC; wire it to a switch port or directly to another port.
  sim::Port& nic() { return nic_; }

  /// Assign a static IPv4 configuration.
  void configure(const Ipv4Config& config);

  /// Drop IP configuration (host goes silent, e.g. during revert).
  void deconfigure();

  [[nodiscard]] bool configured() const { return config_.has_value(); }
  [[nodiscard]] const Ipv4Config& config() const { return *config_; }
  [[nodiscard]] util::Ipv4Addr addr() const {
    return config_ ? config_->addr : util::Ipv4Addr();
  }
  [[nodiscard]] util::MacAddr mac() const { return mac_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  // --- TCP -----------------------------------------------------------

  /// Active open to `dst`. Returns the connection immediately; the
  /// caller sets callbacks on it (on_connected fires once established).
  std::shared_ptr<TcpConnection> connect(util::Endpoint dst);

  /// Passive open: invoke `handler` with each accepted connection.
  void listen(std::uint16_t port, AcceptHandler handler);
  void close_listener(std::uint16_t port);

  // --- UDP -----------------------------------------------------------

  /// Bind a UDP socket; port 0 allocates an ephemeral port.
  std::shared_ptr<UdpSocket> udp_open(std::uint16_t port);

  // --- Stats -----------------------------------------------------------

  [[nodiscard]] std::uint64_t ip_rx() const { return ip_rx_; }
  [[nodiscard]] std::uint64_t ip_tx() const { return ip_tx_; }
  /// TCP connections the stack demultiplexes to (open or closing).
  [[nodiscard]] std::size_t connection_count() const {
    return connections_.size();
  }

  // --- Internal interfaces used by TcpConnection / UdpSocket ----------

  void send_tcp(util::Ipv4Addr dst, const pkt::TcpHeader& tcp,
                std::span<const std::uint8_t> payload);
  /// `broadcast` sends to 255.255.255.255 on the link, bypassing routing
  /// and ARP (and the configuration check: DHCP broadcasts from 0.0.0.0).
  void send_udp(util::Ipv4Addr dst, const pkt::UdpHeader& udp,
                std::span<const std::uint8_t> payload, bool broadcast);
  void remove_connection(const TcpConnection& conn);
  void remove_udp(std::uint16_t port);
  std::uint16_t allocate_port();
  std::uint32_t random_isn() { return static_cast<std::uint32_t>(rng_.next()); }

 private:
  void handle_frame(sim::Frame frame);
  void handle_arp(const pkt::ArpMessage& arp);
  void handle_ipv4(const pkt::Ingress& in,
                   std::span<const std::uint8_t> bytes);
  void handle_tcp_segment(const pkt::FrameView& seg);
  /// Send one IPv4 frame built with this host's MAC as its source: patch
  /// in the next hop's MAC when it is cached, else queue the frame behind
  /// an ARP exchange.
  void send_ipv4(util::Ipv4Addr dst, std::vector<std::uint8_t> frame);
  void send_arp_request(util::Ipv4Addr target);

  sim::EventLoop& loop_;
  std::string name_;
  util::MacAddr mac_;
  util::Rng rng_;
  sim::Port nic_;
  std::optional<Ipv4Config> config_;

  // ARP.
  struct PendingArp {
    std::vector<std::vector<std::uint8_t>> queue;  // Queued IPv4 frames.
    int attempts = 0;
  };
  std::map<util::Ipv4Addr, util::MacAddr> arp_cache_;
  std::map<util::Ipv4Addr, PendingArp> arp_pending_;

  // TCP demux: (local port, remote endpoint) -> connection.
  std::map<std::pair<std::uint16_t, util::Endpoint>,
           std::shared_ptr<TcpConnection>>
      connections_;
  std::map<std::uint16_t, AcceptHandler> listeners_;

  // UDP demux.
  std::map<std::uint16_t, std::weak_ptr<UdpSocket>> udp_sockets_;

  std::uint16_t next_ephemeral_ = 1024;
  std::uint64_t ip_rx_ = 0;
  std::uint64_t ip_tx_ = 0;
};

}  // namespace gq::net

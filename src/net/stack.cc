#include "net/stack.h"

#include "packet/headers.h"
#include "util/log.h"

namespace gq::net {

namespace {
constexpr const char* kLog = "stack";
constexpr int kArpMaxAttempts = 3;
constexpr util::Duration kArpRetryDelay = util::milliseconds(500);
}  // namespace

void UdpSocket::send_to(util::Endpoint dst,
                        std::span<const std::uint8_t> payload) {
  stack_.send_udp(dst.addr, {port_, dst.port}, payload, /*broadcast=*/false);
}

void UdpSocket::send_broadcast(std::uint16_t dst_port,
                               std::span<const std::uint8_t> payload) {
  stack_.send_udp(util::Ipv4Addr(255, 255, 255, 255), {port_, dst_port},
                  payload, /*broadcast=*/true);
}

void UdpSocket::close() { stack_.remove_udp(port_); }

HostStack::HostStack(sim::EventLoop& loop, std::string name,
                     util::MacAddr mac, std::uint64_t seed)
    : loop_(loop),
      name_(std::move(name)),
      mac_(mac),
      rng_(seed),
      nic_(loop, name_ + ".nic") {
  nic_.set_rx([this](sim::Frame frame) { handle_frame(std::move(frame)); });
}

HostStack::~HostStack() {
  // Callbacks commonly capture shared_ptrs back to their own connection
  // or socket (a server session holding the inmate conn whose on_data
  // holds the session, a UDP echo responder capturing itself). For
  // anything still open when the host dies, that cycle would outlive
  // us — clear the handlers so the cycle breaks and the objects free.
  for (auto& [key, conn] : connections_) {
    conn->on_connected = nullptr;
    conn->on_data = nullptr;
    conn->on_remote_close = nullptr;
    conn->on_closed = nullptr;
  }
  for (auto& [port, weak] : udp_sockets_)
    if (const auto sock = weak.lock()) sock->on_datagram = nullptr;
}

void HostStack::configure(const Ipv4Config& config) {
  config_ = config;
  GQ_DEBUG(kLog, "%s: configured %s gw %s", name_.c_str(),
           config.addr.str().c_str(), config.gateway.str().c_str());
}

void HostStack::deconfigure() {
  config_.reset();
  arp_cache_.clear();
  arp_pending_.clear();
  // Abort every connection: the "machine" lost its address.
  auto conns = connections_;
  for (auto& [key, conn] : conns) conn->abort();
  connections_.clear();
}

std::shared_ptr<TcpConnection> HostStack::connect(util::Endpoint dst) {
  const std::uint16_t port = allocate_port();
  auto conn = std::make_shared<TcpConnection>(
      *this, util::Endpoint{addr(), port}, dst);
  if (port == 0) {
    // Every ephemeral port is taken: the connection is never tracked and
    // resets on the next loop turn, as a refused connect would.
    GQ_WARN(kLog, "%s: no ephemeral port left for %s", name_.c_str(),
            dst.str().c_str());
    conn->fail_connect();
    return conn;
  }
  connections_[{port, dst}] = conn;
  conn->start_connect();
  return conn;
}

void HostStack::listen(std::uint16_t port, AcceptHandler handler) {
  listeners_[port] = std::move(handler);
}

void HostStack::close_listener(std::uint16_t port) { listeners_.erase(port); }

std::shared_ptr<UdpSocket> HostStack::udp_open(std::uint16_t port) {
  if (port == 0) port = allocate_port();
  auto sock = std::make_shared<UdpSocket>(*this, port);
  udp_sockets_[port] = sock;
  return sock;
}

std::uint16_t HostStack::allocate_port() {
  for (int guard = 0; guard < 65536; ++guard) {
    const std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        (next_ephemeral_ >= 65535) ? 1024 : next_ephemeral_ + 1;
    if (listeners_.count(candidate) || udp_sockets_.count(candidate))
      continue;
    // connections_ is ordered by (port, remote), and the default Endpoint
    // sorts first, so one probe finds any connection on `candidate`
    // whatever its remote.
    const auto it = connections_.lower_bound({candidate, util::Endpoint{}});
    if (it == connections_.end() || it->first.first != candidate)
      return candidate;
  }
  return 0;  // Exhausted.
}

void HostStack::remove_connection(const TcpConnection& conn) {
  connections_.erase({conn.local().port, conn.remote()});
}

void HostStack::remove_udp(std::uint16_t port) { udp_sockets_.erase(port); }

void HostStack::send_tcp(util::Ipv4Addr dst, const pkt::TcpHeader& tcp,
                         std::span<const std::uint8_t> payload) {
  send_ipv4(dst, pkt::build_tcp({.src = mac_}, {.src = addr(), .dst = dst},
                                tcp, payload));
}

void HostStack::send_udp(util::Ipv4Addr dst, const pkt::UdpHeader& udp,
                         std::span<const std::uint8_t> payload,
                         bool broadcast) {
  if (!broadcast) {
    send_ipv4(dst, pkt::build_udp({.src = mac_}, {.src = addr(), .dst = dst},
                                  udp, payload));
    return;
  }
  nic_.transmit(sim::Frame{pkt::build_udp(
      {.dst = util::MacAddr::broadcast(), .src = mac_},
      {.src = addr(), .dst = dst}, udp, payload)});
  ++ip_tx_;
}

void HostStack::send_ipv4(util::Ipv4Addr dst,
                          std::vector<std::uint8_t> frame) {
  if (!config_) {
    GQ_DEBUG(kLog, "%s: dropping IP packet, no configuration", name_.c_str());
    return;
  }
  ++ip_tx_;
  const util::Ipv4Addr next_hop =
      config_->subnet.contains(dst) ? dst : config_->gateway;
  if (auto it = arp_cache_.find(next_hop); it != arp_cache_.end()) {
    pkt::set_eth_addrs(frame, mac_, it->second);
    nic_.transmit(sim::Frame{std::move(frame)});
    return;
  }
  auto& pending = arp_pending_[next_hop];
  pending.queue.push_back(std::move(frame));
  if (pending.queue.size() > 1) return;  // Request already outstanding.
  pending.attempts = 0;
  send_arp_request(next_hop);
}

void HostStack::send_arp_request(util::Ipv4Addr target) {
  auto it = arp_pending_.find(target);
  if (it == arp_pending_.end()) return;
  if (it->second.attempts++ >= kArpMaxAttempts) {
    GQ_WARN(kLog, "%s: ARP for %s failed, dropping %zu packets",
            name_.c_str(), target.str().c_str(), it->second.queue.size());
    arp_pending_.erase(it);
    return;
  }
  nic_.transmit(sim::Frame{pkt::build_arp(
      {.dst = util::MacAddr::broadcast(), .src = mac_},
      {.op = pkt::ArpMessage::Op::kRequest,
       .sender_mac = mac_,
       .sender_ip = addr(),
       .target_ip = target})});
  loop_.schedule_in(kArpRetryDelay, [this, target] {
    if (arp_pending_.count(target)) send_arp_request(target);
  });
}

void HostStack::handle_frame(sim::Frame frame) {
  auto in = pkt::parse_ingress(frame.bytes, pkt::ViewVerify::kFull);
  if (!in) return;
  if (in->arp) {
    handle_arp(*in->arp);
    return;
  }
  if (in->ipv4) handle_ipv4(*in, frame.bytes);
}

void HostStack::handle_arp(const pkt::ArpMessage& arp) {
  if (!config_) return;
  // Learn the sender mapping opportunistically.
  if (!arp.sender_ip.is_unspecified())
    arp_cache_[arp.sender_ip] = arp.sender_mac;

  // Flush any packets that were waiting on this resolution.
  if (auto it = arp_pending_.find(arp.sender_ip); it != arp_pending_.end()) {
    auto queue = std::move(it->second.queue);
    arp_pending_.erase(it);
    for (auto& frame : queue) {
      pkt::set_eth_addrs(frame, mac_, arp.sender_mac);
      nic_.transmit(sim::Frame{std::move(frame)});
    }
  }

  if (arp.op == pkt::ArpMessage::Op::kRequest &&
      arp.target_ip == config_->addr) {
    nic_.transmit(sim::Frame{pkt::build_arp(
        {.dst = arp.sender_mac, .src = mac_},
        {pkt::ArpMessage::Op::kReply, mac_, config_->addr, arp.sender_mac,
         arp.sender_ip})});
  }
}

void HostStack::handle_ipv4(const pkt::Ingress& in,
                            std::span<const std::uint8_t> bytes) {
  const util::Ipv4Addr src = *pkt::ipv4_src_of(bytes);
  const util::Ipv4Addr dst = *pkt::ipv4_dst_of(bytes);
  const bool to_me =
      config_ && (dst == config_->addr || dst.is_broadcast());
  const bool broadcast_while_unconfigured = !config_ && dst.is_broadcast();
  if (!to_me && !broadcast_while_unconfigured) return;
  ++ip_rx_;

  if (in.view && in.view->is_tcp()) {
    handle_tcp_segment(*in.view);
  } else if (in.view) {
    const auto& dgram = *in.view;
    if (auto it = udp_sockets_.find(dgram.dst_port());
        it != udp_sockets_.end()) {
      if (auto sock = it->second.lock()) {
        if (sock->on_datagram) {
          const auto payload = dgram.payload();
          sock->on_datagram(util::Endpoint{src, dgram.src_port()},
                            {payload.begin(), payload.end()});
        }
      } else {
        udp_sockets_.erase(it);
      }
    }
  } else if (in.icmp && in.icmp->type == 8 && config_) {
    // Echo request: reply in kind.
    pkt::IcmpHeader reply = *in.icmp;
    reply.type = 0;
    send_ipv4(src, pkt::build_icmp({.src = mac_}, {.src = addr(), .dst = src},
                                   reply, in.icmp->payload));
  }
}

void HostStack::handle_tcp_segment(const pkt::FrameView& seg) {
  const util::Endpoint remote{seg.ip_src(), seg.src_port()};
  if (auto it = connections_.find({seg.dst_port(), remote});
      it != connections_.end()) {
    auto conn = it->second;  // Keep alive during input().
    conn->input(seg);
    return;
  }
  if (seg.tcp_syn() && !seg.tcp_has_ack()) {
    if (auto it = listeners_.find(seg.dst_port()); it != listeners_.end()) {
      auto conn = std::make_shared<TcpConnection>(
          *this, util::Endpoint{addr(), seg.dst_port()}, remote);
      connections_[{seg.dst_port(), remote}] = conn;
      // Enter SYN_RCVD before handing the connection to the application:
      // servers commonly send a greeting straight from the accept
      // callback, and send() buffers in SYN_RCVD until establishment.
      conn->start_accept(seg);
      // Copy the handler first: the callback may close_listener() on its
      // own port (single-use listeners), which would destroy the function
      // object we are executing.
      auto handler = it->second;
      handler(conn);
      return;
    }
  }
  if (!seg.tcp_rst()) {
    // No listener / unknown connection: refuse.
    const pkt::TcpHeader rst{
        .src_port = seg.dst_port(),
        .dst_port = seg.src_port(),
        .seq = seg.tcp_has_ack() ? seg.tcp_ack() : 0,
        .ack = seg.tcp_seq() + (seg.tcp_syn() ? 1 : 0) + seg.payload_len(),
        .flags = pkt::kTcpRst | pkt::kTcpAck};
    send_tcp(remote.addr, rst, {});
  }
}

}  // namespace gq::net

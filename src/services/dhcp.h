// DHCP (RFC 2131 subset): wire format, lease-pool policy, and a client
// that drives a HostStack's boot-time configuration. GQ's gateway
// "dynamically assigns internal addresses from RFC 1918 space, triggered
// by the inmates' boot-time chatter" (§5.3) — the protocol and pool
// logic here are pure so both the gateway's in-path DHCP responder and
// the raw-iron controller's standalone server reuse them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/stack.h"
#include "util/addr.h"

namespace gq::svc {

/// The DHCP message types the farm uses.
enum class DhcpType : std::uint8_t {
  kDiscover = 1,
  kOffer = 2,
  kRequest = 3,
  kAck = 5,
  kNak = 6,
};

/// Decoded DHCP message (BOOTP header + the options we care about).
struct DhcpMessage {
  bool is_reply = false;  // BOOTP op: false=BOOTREQUEST, true=BOOTREPLY.
  std::uint32_t xid = 0;
  util::MacAddr client_mac;
  util::Ipv4Addr ciaddr;  // Client's current address (renewals).
  util::Ipv4Addr yiaddr;  // "Your" address (in replies).
  DhcpType type = DhcpType::kDiscover;
  std::optional<util::Ipv4Addr> requested_ip;   // Option 50.
  std::optional<util::Ipv4Addr> server_id;      // Option 54.
  std::optional<util::Ipv4Addr> subnet_mask;    // Option 1.
  std::optional<util::Ipv4Addr> router;         // Option 3.
  std::optional<util::Ipv4Addr> dns;            // Option 6.

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<DhcpMessage> parse(std::span<const std::uint8_t> data);

  bool operator==(const DhcpMessage&) const = default;
};

/// What a DHCP responder hands out.
struct DhcpLeaseConfig {
  util::Ipv4Net subnet;
  util::Ipv4Addr router;
  util::Ipv4Addr dns;
  util::Ipv4Addr server_id;
};

/// Pure lease-pool + protocol policy: feed it inbound client messages,
/// get the reply (if any). Used in-path by the gateway and by the
/// standalone DhcpServer below. Assignment is first-free from the pool,
/// sticky per client MAC.
class DhcpPool {
 public:
  /// Hands out subnet.host(first)..subnet.host(last) inclusive.
  DhcpPool(DhcpLeaseConfig config, std::uint32_t first, std::uint32_t last);

  /// Process a client message; returns the reply to broadcast, if any.
  std::optional<DhcpMessage> handle(const DhcpMessage& request);

  /// The address currently bound to `mac`, if any.
  [[nodiscard]] std::optional<util::Ipv4Addr> lease_of(
      util::MacAddr mac) const;

  /// Release a client's lease (inmate destroyed).
  void release(util::MacAddr mac);

  [[nodiscard]] const DhcpLeaseConfig& config() const { return config_; }
  [[nodiscard]] std::size_t leases_in_use() const { return by_mac_.size(); }

 private:
  std::optional<util::Ipv4Addr> allocate(util::MacAddr mac);

  DhcpLeaseConfig config_;
  std::uint32_t first_, last_;
  std::map<util::MacAddr, util::Ipv4Addr> by_mac_;
  std::map<util::Ipv4Addr, util::MacAddr> by_addr_;
};

/// Standalone DHCP server bound to a HostStack (used on the raw-iron
/// controller network, §6.4).
class DhcpServer {
 public:
  DhcpServer(net::HostStack& stack, DhcpPool pool);

  [[nodiscard]] DhcpPool& pool() { return pool_; }

 private:
  net::HostStack& stack_;
  DhcpPool pool_;
  std::shared_ptr<net::UdpSocket> sock_;
};

/// DHCP client: performs DISCOVER/OFFER/REQUEST/ACK and configures the
/// stack with the result. Retries with backoff until it succeeds.
class DhcpClient {
 public:
  using ConfiguredHandler = std::function<void(const net::Ipv4Config&)>;

  DhcpClient(net::HostStack& stack, ConfiguredHandler on_configured);

  /// Begin (or restart) acquisition.
  void start();

  [[nodiscard]] bool bound() const { return bound_; }

 private:
  void send_discover();
  void handle_datagram(std::span<const std::uint8_t> data);

  net::HostStack& stack_;
  ConfiguredHandler on_configured_;
  std::shared_ptr<net::UdpSocket> sock_;
  std::uint32_t xid_ = 0;
  bool bound_ = false;
  int attempts_ = 0;
  /// Liveness token: the client is destroyed on inmate reboot/revert
  /// while retry timers may still be pending.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gq::svc

// DNS (RFC 1035 subset): message encode/parse for A queries, an
// authoritative server with a static zone, a forwarding resolver (the
// "recursive DNS resolver" GQ places on the inmate network, §5.3), and a
// stub resolver for client hosts. DGA-style malware exercises this stack
// heavily: generated names resolve (or NXDOMAIN) through the farm
// resolver to the simulated Internet's DNS.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/stack.h"
#include "util/addr.h"

namespace gq::svc {

/// A decoded DNS message (queries and A-record responses).
struct DnsMessage {
  std::uint16_t id = 0;
  bool is_response = false;
  bool recursion_desired = true;
  std::uint8_t rcode = 0;  // 0=NOERROR, 3=NXDOMAIN.
  std::string qname;       // Single question, lowercase, no trailing dot.
  std::uint16_t qtype = 1;  // A.
  std::vector<util::Ipv4Addr> answers;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  static std::optional<DnsMessage> parse(std::span<const std::uint8_t> data);

  bool operator==(const DnsMessage&) const = default;
};

/// Authoritative DNS server over a static zone; unknown names get
/// NXDOMAIN. Supports glob patterns in record names ("*.cc.example").
class DnsServer {
 public:
  DnsServer(net::HostStack& stack, std::uint16_t port = 53);

  /// Add an exact or glob record.
  void add_record(std::string name, util::Ipv4Addr addr);

  [[nodiscard]] std::uint64_t queries_served() const { return queries_; }

 private:
  void handle(util::Endpoint from, std::vector<std::uint8_t> data);

  net::HostStack& stack_;
  std::shared_ptr<net::UdpSocket> sock_;
  std::vector<std::pair<std::string, util::Ipv4Addr>> records_;
  std::uint64_t queries_ = 0;
};

/// Forwarding resolver: relays client queries to an upstream server and
/// relays the answers back (with a small cache). This is the inmate
/// network's "recursive resolver" — inmates only ever talk to it, the
/// resolver talks to the simulated Internet.
class DnsForwarder {
 public:
  DnsForwarder(net::HostStack& stack, util::Endpoint upstream);

  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }

 private:
  struct Pending {
    util::Endpoint client;
    std::uint16_t client_id;
  };

  void handle_client(util::Endpoint from, std::vector<std::uint8_t> data);
  void handle_upstream(std::vector<std::uint8_t> data);

  net::HostStack& stack_;
  util::Endpoint upstream_;
  std::shared_ptr<net::UdpSocket> server_sock_;
  std::shared_ptr<net::UdpSocket> upstream_sock_;
  std::map<std::uint16_t, Pending> pending_;  // Upstream id -> client.
  std::map<std::string, std::vector<util::Ipv4Addr>> cache_;
  std::uint16_t next_id_ = 1;
  std::uint64_t forwarded_ = 0;
  std::uint64_t cache_hits_ = 0;
};

/// Client-side resolver: asks the stack's configured DNS server, with
/// timeout + retry. Callback receives nullopt on NXDOMAIN or timeout.
class StubResolver {
 public:
  using Callback = std::function<void(std::optional<util::Ipv4Addr>)>;

  explicit StubResolver(net::HostStack& stack);

  void resolve(const std::string& name, Callback callback);

  [[nodiscard]] std::uint64_t queries_sent() const { return sent_; }

 private:
  struct Query {
    std::string name;
    Callback callback;
    int attempts = 0;
  };

  void send_query(std::uint16_t id);
  void handle(std::vector<std::uint8_t> data);

  net::HostStack& stack_;
  std::shared_ptr<net::UdpSocket> sock_;
  std::map<std::uint16_t, Query> pending_;
  std::uint16_t next_id_ = 1;
  std::uint64_t sent_ = 0;
  /// Liveness token: retry timers become no-ops after destruction (the
  /// resolver is owned by behaviours that die on revert/reinfection).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace gq::svc

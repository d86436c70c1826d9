#include "services/dns.h"

#include "util/bytes.h"
#include "util/glob.h"
#include "util/log.h"
#include "util/strings.h"

namespace gq::svc {

namespace {

constexpr const char* kLog = "dns";

// Encode a dotted name as DNS labels; the root name "" is the lone
// terminating zero.
void encode_name(util::ByteWriter& w, const std::string& name) {
  if (!name.empty()) {
    for (const auto& label : util::split(name, '.')) {
      w.u8(static_cast<std::uint8_t>(label.size()));
      w.str(label);
    }
  }
  w.u8(0);
}

// Decode labels at the reader's position (no compression-pointer support
// needed: we never emit pointers).
std::optional<std::string> decode_name(util::ByteReader& r) {
  std::string name;
  for (;;) {
    const std::uint8_t len = r.u8();
    if (len == 0) break;
    if (len >= 0xC0) return std::nullopt;  // Compression unsupported.
    const std::string label = r.str(len);
    // A dot inside a label has no spelling in the dotted name.
    if (label.find('.') != std::string::npos) return std::nullopt;
    if (!name.empty()) name += '.';
    name += label;
  }
  return util::to_lower(name);
}

}  // namespace

std::vector<std::uint8_t> DnsMessage::encode() const {
  util::ByteWriter w(64);
  w.u16(id);
  std::uint16_t flags = 0;
  if (is_response) flags |= 0x8000;
  if (recursion_desired) flags |= 0x0100;
  if (is_response) flags |= 0x0080;  // RA.
  flags |= rcode & 0x0F;
  w.u16(flags);
  w.u16(1);  // QDCOUNT.
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(0);  // NSCOUNT.
  w.u16(0);  // ARCOUNT.
  encode_name(w, qname);
  w.u16(qtype);
  w.u16(1);  // QCLASS IN.
  for (const auto& addr : answers) {
    encode_name(w, qname);
    w.u16(1);   // TYPE A.
    w.u16(1);   // CLASS IN.
    w.u32(60);  // TTL.
    w.u16(4);
    w.u32(addr.value());
  }
  return w.take();
}

std::optional<DnsMessage> DnsMessage::parse(
    std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    DnsMessage msg;
    msg.id = r.u16();
    const std::uint16_t flags = r.u16();
    msg.is_response = flags & 0x8000;
    msg.recursion_desired = flags & 0x0100;
    msg.rcode = flags & 0x0F;
    const std::uint16_t qdcount = r.u16();
    const std::uint16_t ancount = r.u16();
    r.skip(4);  // NSCOUNT + ARCOUNT.
    if (qdcount != 1) return std::nullopt;
    auto qname = decode_name(r);
    if (!qname) return std::nullopt;
    msg.qname = *qname;
    msg.qtype = r.u16();
    r.skip(2);  // QCLASS.
    for (std::uint16_t i = 0; i < ancount; ++i) {
      auto name = decode_name(r);
      if (!name) return std::nullopt;
      const std::uint16_t type = r.u16();
      r.skip(2 + 4);  // CLASS + TTL.
      const std::uint16_t rdlen = r.u16();
      if (type == 1 && rdlen == 4) {
        msg.answers.emplace_back(r.u32());
      } else {
        r.skip(rdlen);
      }
    }
    return msg;
  } catch (const util::BufferUnderflow&) {
    return std::nullopt;
  }
}

DnsServer::DnsServer(net::HostStack& stack, std::uint16_t port)
    : stack_(stack) {
  sock_ = stack_.udp_open(port);
  sock_->on_datagram = [this](util::Endpoint from,
                              std::vector<std::uint8_t> data) {
    handle(from, std::move(data));
  };
}

void DnsServer::add_record(std::string name, util::Ipv4Addr addr) {
  records_.emplace_back(util::to_lower(name), addr);
}

void DnsServer::handle(util::Endpoint from, std::vector<std::uint8_t> data) {
  auto query = DnsMessage::parse(data);
  if (!query || query->is_response) return;
  ++queries_;
  DnsMessage response = *query;
  response.is_response = true;
  response.answers.clear();
  for (const auto& [pattern, addr] : records_) {
    if (pattern == query->qname ||
        util::glob_match(pattern, query->qname)) {
      response.answers.push_back(addr);
    }
  }
  response.rcode = response.answers.empty() ? 3 : 0;  // NXDOMAIN : NOERROR.
  sock_->send_to(from, response.encode());
}

DnsForwarder::DnsForwarder(net::HostStack& stack, util::Endpoint upstream)
    : stack_(stack), upstream_(upstream) {
  server_sock_ = stack_.udp_open(53);
  server_sock_->on_datagram = [this](util::Endpoint from,
                                     std::vector<std::uint8_t> data) {
    handle_client(from, std::move(data));
  };
  upstream_sock_ = stack_.udp_open(0);
  upstream_sock_->on_datagram = [this](util::Endpoint,
                                       std::vector<std::uint8_t> data) {
    handle_upstream(std::move(data));
  };
}

void DnsForwarder::handle_client(util::Endpoint from,
                                 std::vector<std::uint8_t> data) {
  auto query = DnsMessage::parse(data);
  if (!query || query->is_response) return;

  if (auto it = cache_.find(query->qname); it != cache_.end()) {
    ++cache_hits_;
    DnsMessage response = *query;
    response.is_response = true;
    response.answers = it->second;
    response.rcode = response.answers.empty() ? 3 : 0;
    server_sock_->send_to(from, response.encode());
    return;
  }

  const std::uint16_t upstream_id = next_id_++;
  pending_[upstream_id] = Pending{from, query->id};
  DnsMessage forwarded = *query;
  forwarded.id = upstream_id;
  upstream_sock_->send_to(upstream_, forwarded.encode());
  ++forwarded_;
}

void DnsForwarder::handle_upstream(std::vector<std::uint8_t> data) {
  auto response = DnsMessage::parse(data);
  if (!response || !response->is_response) return;
  auto it = pending_.find(response->id);
  if (it == pending_.end()) return;
  const Pending pending = it->second;
  pending_.erase(it);
  cache_[response->qname] = response->answers;
  response->id = pending.client_id;
  server_sock_->send_to(pending.client, response->encode());
}

StubResolver::StubResolver(net::HostStack& stack) : stack_(stack) {
  sock_ = stack_.udp_open(0);
  sock_->on_datagram = [this](util::Endpoint, std::vector<std::uint8_t> data) {
    handle(std::move(data));
  };
}

void StubResolver::resolve(const std::string& name, Callback callback) {
  const std::uint16_t id = next_id_++;
  pending_[id] = Query{util::to_lower(name), std::move(callback), 0};
  send_query(id);
}

void StubResolver::send_query(std::uint16_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  auto& query = it->second;
  if (query.attempts++ >= 3) {
    auto cb = std::move(query.callback);
    pending_.erase(it);
    GQ_DEBUG(kLog, "%s: resolve %s timed out", stack_.name().c_str(),
             query.name.c_str());
    if (cb) cb(std::nullopt);
    return;
  }
  DnsMessage msg;
  msg.id = id;
  msg.qname = query.name;
  const util::Ipv4Addr server = stack_.config().dns;
  if (server.is_unspecified()) {
    auto cb = std::move(query.callback);
    pending_.erase(it);
    if (cb) cb(std::nullopt);
    return;
  }
  sock_->send_to({server, 53}, msg.encode());
  ++sent_;
  stack_.loop().schedule_in(util::seconds(2),
                            [this, id, weak = std::weak_ptr<bool>(alive_)] {
                              if (!weak.expired()) send_query(id);
                            });
}

void StubResolver::handle(std::vector<std::uint8_t> data) {
  auto response = DnsMessage::parse(data);
  if (!response || !response->is_response) return;
  auto it = pending_.find(response->id);
  if (it == pending_.end()) return;
  auto cb = std::move(it->second.callback);
  pending_.erase(it);
  if (cb) {
    if (response->rcode == 0 && !response->answers.empty())
      cb(response->answers.front());
    else
      cb(std::nullopt);
  }
}

}  // namespace gq::svc

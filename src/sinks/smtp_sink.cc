#include "sinks/smtp_sink.h"

#include "util/bytes.h"
#include "util/log.h"
#include "util/strings.h"

namespace gq::sinks {

namespace {
constexpr const char* kLog = "smtpsink";

enum class SmtpState { kWaitHelo, kIdle, kWaitRcpt, kInData };

// Lenient extraction of an address from "MAIL FROM:<a@b>" and its many
// bot-flavoured corruptions ("MAIL FROM a@b", "mail from: a@b", ...).
std::string extract_address(std::string_view args) {
  std::string out(util::trim(args));
  if (!out.empty() && out.front() == ':') out = out.substr(1);
  out = std::string(util::trim(out));
  if (!out.empty() && out.front() == '<') out = out.substr(1);
  if (!out.empty() && out.back() == '>') out.pop_back();
  return out;
}

// Strict form requires exactly "FROM:<address>".
bool strict_address_ok(std::string_view args) {
  return args.size() >= 3 && args.front() == ':' &&
         args[1] == '<' && args.back() == '>';
}

}  // namespace

struct SmtpSink::Session {
  std::shared_ptr<net::TcpConnection> conn;
  std::string buffer;
  SmtpState state = SmtpState::kWaitHelo;
  bool helo_seen = false;
  HarvestedMessage message;
  std::string data_buffer;
};

SmtpSink::SmtpSink(net::HostStack& stack, SmtpSinkConfig config)
    : stack_(stack), config_(std::move(config)), rng_(config_.seed) {
  stack_.listen(config_.port,
                [this](std::shared_ptr<net::TcpConnection> conn) {
                  on_accept(std::move(conn));
                });
  hint_sock_ = stack_.udp_open(config_.hint_port);
  hint_sock_->on_datagram = [this](util::Endpoint,
                                   std::vector<std::uint8_t> data) {
    // Hint format: "<inmate-ip> <target-ip>:<port>\n".
    auto parts = util::split_ws(util::to_string(data));
    if (parts.size() != 2) return;
    auto inmate = util::Ipv4Addr::parse(parts[0]);
    auto colon = parts[1].rfind(':');
    if (!inmate || colon == std::string::npos) return;
    auto target = util::Ipv4Addr::parse(parts[1].substr(0, colon));
    auto port = util::parse_int(parts[1].substr(colon + 1));
    if (!target || !port) return;
    add_destination_hint(*inmate,
                         {*target, static_cast<std::uint16_t>(*port)});
  };
}

void SmtpSink::add_destination_hint(util::Ipv4Addr inmate,
                                    util::Endpoint orig_dst) {
  hints_[inmate] = orig_dst;
}

void SmtpSink::set_telemetry(obs::Telemetry* telemetry, std::string subfarm,
                             std::string service) {
  telemetry_ = telemetry;
  subfarm_name_ = std::move(subfarm);
  service_name_ = std::move(service);
  if (!telemetry_) {
    sessions_ctr_ = data_ctr_ = dropped_ctr_ = nullptr;
    return;
  }
  const std::string prefix =
      "sink." + subfarm_name_ + "." + service_name_ + ".";
  auto& metrics = telemetry_->metrics();
  sessions_ctr_ = &metrics.counter(prefix + "sessions");
  data_ctr_ = &metrics.counter(prefix + "data_transfers");
  dropped_ctr_ = &metrics.counter(prefix + "dropped_connections");
}

void SmtpSink::publish_sink_event(obs::FarmEvent::Kind kind,
                                  util::Endpoint source) {
  if (!telemetry_) return;
  obs::FarmEvent event;
  event.kind = kind;
  event.time = stack_.loop().now();
  event.subfarm = subfarm_name_;
  event.sink_service = service_name_;
  event.sink_source = source;
  telemetry_->publish(event);
}

void SmtpSink::on_accept(std::shared_ptr<net::TcpConnection> conn) {
  if (config_.drop_probability > 0.0 &&
      rng_.chance(config_.drop_probability)) {
    ++dropped_;
    if (dropped_ctr_) dropped_ctr_->inc();
    conn->abort();
    return;
  }
  ++sessions_;
  ++by_source_[conn->remote().addr].sessions;
  if (sessions_ctr_) sessions_ctr_->inc();
  publish_sink_event(obs::FarmEvent::Kind::kSinkSession, conn->remote());
  auto session = std::make_shared<Session>();
  session->conn = conn;
  session->message.from = conn->remote();
  conn->on_data = [this, session](std::span<const std::uint8_t> data) {
    session->buffer.append(reinterpret_cast<const char*>(data.data()),
                           data.size());
    std::size_t pos;
    while ((pos = session->buffer.find("\r\n")) != std::string::npos) {
      std::string line = session->buffer.substr(0, pos);
      session->buffer.erase(0, pos + 2);
      handle_line(session, std::move(line));
    }
  };
  conn->on_remote_close = [conn] { conn->close(); };
  begin_session(session);
}

void SmtpSink::begin_session(std::shared_ptr<Session> session) {
  if (!config_.banner_grabbing) {
    session->conn->send(config_.static_banner + "\r\n");
    return;
  }
  auto hint = hints_.find(session->conn->remote().addr);
  if (hint == hints_.end()) {
    session->conn->send(config_.static_banner + "\r\n");
    return;
  }
  const util::Endpoint target = hint->second;
  if (auto cached = banner_cache_.find(target.addr);
      cached != banner_cache_.end()) {
    session->conn->send(cached->second + "\r\n");
    return;
  }
  grab_banner(target, [this, session, target](std::string banner) {
    banner_cache_[target.addr] = banner;
    if (session->conn) session->conn->send(banner + "\r\n");
  });
}

void SmtpSink::grab_banner(util::Endpoint target,
                           std::function<void(std::string)> done) {
  auto conn = stack_.connect(target);
  auto buffer = std::make_shared<std::string>();
  auto finished = std::make_shared<bool>(false);
  auto finish = [this, done, finished, conn](std::string banner) {
    if (*finished) return;
    *finished = true;
    ++banners_grabbed_;
    done(std::move(banner));
    conn->abort();
  };
  conn->on_data = [buffer, finish](std::span<const std::uint8_t> data) {
    buffer->append(reinterpret_cast<const char*>(data.data()), data.size());
    if (auto pos = buffer->find("\r\n"); pos != std::string::npos) {
      finish(buffer->substr(0, pos));
    }
  };
  auto fallback = [this, done, finished] {
    if (*finished) return;
    *finished = true;
    done(config_.static_banner);
  };
  conn->on_reset = fallback;
  conn->on_closed = fallback;
  // Give the real server a bounded time to answer.
  stack_.loop().schedule_in(util::seconds(10), [finish, this] {
    finish(config_.static_banner);
  });
}

void SmtpSink::handle_line(std::shared_ptr<Session> session,
                           std::string line) {
  auto& conn = *session->conn;

  if (session->state == SmtpState::kInData) {
    if (line == ".") {
      session->state = SmtpState::kIdle;
      ++data_transfers_;
      ++by_source_[session->conn->remote().addr].data_transfers;
      if (data_ctr_) data_ctr_->inc();
      publish_sink_event(obs::FarmEvent::Kind::kSinkData,
                         session->conn->remote());
      session->message.data = std::move(session->data_buffer);
      session->data_buffer.clear();
      session->message.received = stack_.loop().now();
      harvest_.push_back(session->message);
      session->message.rcpt_to.clear();
      session->message.mail_from.clear();
      conn.send("250 OK queued\r\n");
    } else {
      session->data_buffer += line;
      session->data_buffer += "\r\n";
    }
    return;
  }

  const auto space = line.find(' ');
  const std::string verb = util::to_lower(
      space == std::string::npos ? line : line.substr(0, space));
  const std::string args =
      space == std::string::npos ? "" : line.substr(space + 1);

  if (verb == "helo" || verb == "ehlo") {
    if (config_.strict_protocol && session->helo_seen) {
      // §7.1: real bots repeat HELO; a strict engine refuses and the
      // session never reaches DATA.
      conn.send("503 bad sequence of commands\r\n");
      return;
    }
    session->helo_seen = true;
    session->message.helo = std::string(util::trim(args));
    session->state = SmtpState::kIdle;
    conn.send("250 " + std::string("mx.sink.gq") + "\r\n");
    return;
  }
  if (verb == "mail") {
    if (session->state == SmtpState::kWaitHelo) {
      conn.send("503 need HELO first\r\n");
      return;
    }
    // Args look like "FROM:<a@b>" (or a bot-mangled variant).
    std::string_view rest(args);
    if (util::starts_with_icase(rest, "from")) rest.remove_prefix(4);
    if (config_.strict_protocol && !strict_address_ok(rest)) {
      conn.send("501 syntax error in MAIL FROM\r\n");
      return;
    }
    session->message.mail_from = extract_address(rest);
    session->state = SmtpState::kWaitRcpt;
    conn.send("250 sender OK\r\n");
    return;
  }
  if (verb == "rcpt") {
    if (session->state != SmtpState::kWaitRcpt) {
      conn.send("503 need MAIL first\r\n");
      return;
    }
    std::string_view rest(args);
    if (util::starts_with_icase(rest, "to")) rest.remove_prefix(2);
    if (config_.strict_protocol && !strict_address_ok(rest)) {
      conn.send("501 syntax error in RCPT TO\r\n");
      return;
    }
    session->message.rcpt_to.push_back(extract_address(rest));
    conn.send("250 recipient OK\r\n");
    return;
  }
  if (verb == "data") {
    if (session->state != SmtpState::kWaitRcpt ||
        session->message.rcpt_to.empty()) {
      conn.send("503 need RCPT first\r\n");
      return;
    }
    session->state = SmtpState::kInData;
    conn.send("354 end with <CRLF>.<CRLF>\r\n");
    return;
  }
  if (verb == "rset") {
    session->state =
        session->helo_seen ? SmtpState::kIdle : SmtpState::kWaitHelo;
    session->message.rcpt_to.clear();
    session->message.mail_from.clear();
    conn.send("250 OK\r\n");
    return;
  }
  if (verb == "quit") {
    conn.send("221 bye\r\n");
    conn.close();
    return;
  }
  if (verb == "noop") {
    conn.send("250 OK\r\n");
    return;
  }
  conn.send("502 command not implemented\r\n");
}

}  // namespace gq::sinks

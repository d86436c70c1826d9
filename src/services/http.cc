#include "services/http.h"

#include "util/log.h"
#include "util/strings.h"

namespace gq::svc {

namespace {

constexpr const char* kLog = "http";

std::optional<std::string> find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  const std::string lower = util::to_lower(name);
  for (const auto& [k, v] : headers)
    if (util::to_lower(k) == lower) return v;
  return std::nullopt;
}

void set_header_in(std::vector<std::pair<std::string, std::string>>& headers,
                   const std::string& name, const std::string& value) {
  const std::string lower = util::to_lower(name);
  for (auto& [k, v] : headers) {
    if (util::to_lower(k) == lower) {
      v = value;
      return;
    }
  }
  headers.emplace_back(name, value);
}

void encode_headers(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  for (const auto& [k, v] : headers) out += k + ": " + v + "\r\n";
  out += "\r\n";
}

// Parses header lines shared between requests and responses. Returns
// false on malformed header lines.
bool parse_header_lines(
    const std::string& text,
    std::vector<std::pair<std::string, std::string>>& headers) {
  for (const auto& line : util::split(text, '\n')) {
    std::string_view trimmed = util::trim(line);
    if (trimmed.empty()) continue;
    const auto colon = trimmed.find(':');
    if (colon == std::string_view::npos) return false;
    headers.emplace_back(std::string(util::trim(trimmed.substr(0, colon))),
                         std::string(util::trim(trimmed.substr(colon + 1))));
  }
  return true;
}

// Fills in the start-line fields of a request from its first line.
bool parse_start_line(HttpRequest& req, std::string_view line) {
  auto parts = util::split_ws(line);
  if (parts.size() != 3) return false;
  req.method = parts[0];
  req.path = parts[1];
  req.version = parts[2];
  return true;
}

bool parse_start_line(HttpResponse& rsp, std::string_view line) {
  auto parts = util::split_ws(line);
  if (parts.size() < 2) return false;
  rsp.version = parts[0];
  auto status = util::parse_int(parts[1]);
  if (!status) return false;
  rsp.status = static_cast<int>(*status);
  rsp.reason.clear();
  for (std::size_t i = 2; i < parts.size(); ++i) {
    if (i > 2) rsp.reason += ' ';
    rsp.reason += parts[i];
  }
  return true;
}

}  // namespace

std::optional<std::string> HttpRequest::header(const std::string& name) const {
  return find_header(headers, name);
}

void HttpRequest::set_header(const std::string& name,
                             const std::string& value) {
  set_header_in(headers, name, value);
}

std::string HttpRequest::encode() const {
  std::string out = method + " " + path + " " + version + "\r\n";
  auto copy = headers;
  if (!body.empty() && !find_header(copy, "Content-Length"))
    set_header_in(copy, "Content-Length", std::to_string(body.size()));
  encode_headers(out, copy);
  out += body;
  return out;
}

std::optional<std::string> HttpResponse::header(
    const std::string& name) const {
  return find_header(headers, name);
}

void HttpResponse::set_header(const std::string& name,
                              const std::string& value) {
  set_header_in(headers, name, value);
}

std::string HttpResponse::encode() const {
  std::string out =
      version + " " + std::to_string(status) + " " + reason + "\r\n";
  auto copy = headers;
  if (!find_header(copy, "Content-Length"))
    set_header_in(copy, "Content-Length", std::to_string(body.size()));
  encode_headers(out, copy);
  out += body;
  return out;
}

HttpResponse HttpResponse::make(int status, std::string reason,
                                std::string body, std::string content_type) {
  HttpResponse rsp;
  rsp.status = status;
  rsp.reason = std::move(reason);
  rsp.body = std::move(body);
  rsp.set_header("Content-Type", std::move(content_type));
  rsp.set_header("Content-Length", std::to_string(rsp.body.size()));
  return rsp;
}

template <typename Message>
void HttpParser<Message>::feed(std::span<const std::uint8_t> data) {
  if (failed_) return;
  buffer_.append(reinterpret_cast<const char*>(data.data()), data.size());
}

template <typename Message>
bool HttpParser<Message>::try_parse_header() {
  // Header flood: the head, blank line included, must fit in 64 KiB.
  // Judged on the head itself, so a long head fails whether it arrives
  // in one piece or in many.
  constexpr std::size_t kMaxHead = 64 * 1024;
  const auto end = buffer_.find("\r\n\r\n");
  if (end == std::string::npos ? buffer_.size() >= kMaxHead
                               : end + 4 > kMaxHead) {
    failed_ = true;
    return false;
  }
  if (end == std::string::npos) return false;
  const std::string head = buffer_.substr(0, end);
  buffer_.erase(0, end + 4);

  const auto line_end = head.find("\r\n");
  const std::string start_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::string rest =
      line_end == std::string::npos ? "" : head.substr(line_end + 2);

  Message msg;
  if (!parse_start_line(msg, start_line) ||
      !parse_header_lines(rest, msg.headers)) {
    failed_ = true;
    return false;
  }
  body_needed_ = 0;
  if (auto cl = find_header(msg.headers, "Content-Length")) {
    auto n = util::parse_int(*cl);
    if (!n || *n < 0 || *n > 16 * 1024 * 1024) {
      failed_ = true;
      return false;
    }
    body_needed_ = static_cast<std::size_t>(*n);
  }
  in_progress_ = std::move(msg);
  return true;
}

template <typename Message>
std::optional<Message> HttpParser<Message>::take() {
  if (failed_) return std::nullopt;
  if (!in_progress_ && !try_parse_header()) return std::nullopt;
  if (buffer_.size() < body_needed_) return std::nullopt;
  Message msg = std::move(*in_progress_);
  in_progress_.reset();
  msg.body = buffer_.substr(0, body_needed_);
  buffer_.erase(0, body_needed_);
  body_needed_ = 0;
  return msg;
}

template class HttpParser<HttpRequest>;
template class HttpParser<HttpResponse>;

HttpServer::HttpServer(net::HostStack& stack, std::uint16_t port,
                       Handler handler)
    : stack_(stack), handler_(std::move(handler)) {
  stack_.listen(port, [this](std::shared_ptr<net::TcpConnection> conn) {
    auto parser = std::make_shared<HttpRequestParser>();
    conn->on_data = [this, conn, parser](std::span<const std::uint8_t> data) {
      parser->feed(data);
      if (parser->failed()) {
        conn->abort();
        return;
      }
      while (auto request = parser->take()) {
        ++requests_;
        HttpResponse response = handler_(*request, conn->remote());
        const bool close =
            request->header("Connection").value_or("") == "close" ||
            request->version == "HTTP/1.0";
        conn->send(response.encode());
        if (close) {
          conn->close();
          break;
        }
      }
    };
    conn->on_remote_close = [conn] { conn->close(); };
  });
}

void HttpClient::fetch(net::HostStack& stack, util::Endpoint server,
                       HttpRequest request, Callback callback) {
  auto conn = stack.connect(server);
  auto parser = std::make_shared<HttpResponseParser>();
  auto done = std::make_shared<bool>(false);
  auto cb = std::make_shared<Callback>(std::move(callback));

  // A failure hands the callback a fresh nullopt rather than moving the
  // disengaged argument: GCC cannot see that the moved payload is never
  // read and warns (-Wmaybe-uninitialized) on every failure path.
  auto finish = [done, cb](std::optional<HttpResponse> response) {
    if (*done) return;
    *done = true;
    if (!*cb) return;
    if (response)
      (*cb)(std::move(response));
    else
      (*cb)(std::nullopt);
  };

  conn->on_connected = [conn, request = std::move(request)] {
    conn->send(request.encode());
  };
  conn->on_data = [conn, parser, finish](std::span<const std::uint8_t> data) {
    parser->feed(data);
    if (parser->failed()) {
      finish(std::nullopt);
      conn->abort();
      return;
    }
    if (auto response = parser->take()) {
      finish(std::move(response));
      conn->close();
    }
  };
  conn->on_reset = [finish] { finish(std::nullopt); };
  conn->on_closed = [finish] { finish(std::nullopt); };
  // A server that accepts but never answers (a catch-all sink, say) must
  // not hang the client forever.
  stack.loop().schedule_in(util::seconds(30), [finish, conn] {
    finish(std::nullopt);
    conn->abort();
  });
  GQ_DEBUG(kLog, "%s: fetch from %s", stack.name().c_str(),
           server.str().c_str());
}

}  // namespace gq::svc

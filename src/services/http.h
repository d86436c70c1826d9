// Minimal HTTP/1.1: message types, incremental parsers, a server and a
// client. HTTP is the lingua franca of the malware GQ studies — C&C
// polls, auto-infection downloads (§6.6), clickbot traffic — and the
// containment server's REWRITE proxies parse and rewrite it in-path
// (Figure 5 rewrites "GET bot.exe" into "GET cleanup.exe").
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
#include "net/tcp.h"

namespace gq::svc {

/// An HTTP request line + headers + body.
struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  std::string version = "HTTP/1.1";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  [[nodiscard]] std::optional<std::string> header(
      const std::string& name) const;
  void set_header(const std::string& name, const std::string& value);
  [[nodiscard]] std::string encode() const;

  friend bool operator==(const HttpRequest&, const HttpRequest&) = default;
};

/// An HTTP response.
struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  [[nodiscard]] std::optional<std::string> header(
      const std::string& name) const;
  void set_header(const std::string& name, const std::string& value);
  [[nodiscard]] std::string encode() const;

  /// Convenience factory with Content-Length set.
  static HttpResponse make(int status, std::string reason, std::string body,
                           std::string content_type = "text/plain");

  friend bool operator==(const HttpResponse&, const HttpResponse&) = default;
};

/// Incremental parser: feed() bytes as they arrive; when a complete
/// message is available, take() returns it and parsing continues with
/// any remaining bytes (pipelined / keep-alive traffic). Framing is via
/// Content-Length (or none: headers-only messages complete immediately).
template <typename Message>
class HttpParser {
 public:
  /// Append raw stream bytes.
  void feed(std::span<const std::uint8_t> data);

  /// Extract the next complete message, if any.
  std::optional<Message> take();

  /// True once malformed input was seen; the stream should be dropped.
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  bool try_parse_header();

  std::string buffer_;
  // Bytes at the front of buffer_ already searched for the end of the
  // head.
  std::size_t head_scanned_ = 0;
  std::optional<Message> in_progress_;
  std::size_t body_needed_ = 0;
  bool failed_ = false;
};

using HttpRequestParser = HttpParser<HttpRequest>;
using HttpResponseParser = HttpParser<HttpResponse>;

/// HTTP server on a HostStack. The handler maps request -> response;
/// connections are kept alive for sequential requests.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(
      const HttpRequest&, util::Endpoint client)>;

  HttpServer(net::HostStack& stack, std::uint16_t port, Handler handler);

  [[nodiscard]] std::uint64_t requests_served() const { return requests_; }

 private:
  net::HostStack& stack_;
  Handler handler_;
  std::uint64_t requests_ = 0;
};

/// One-shot HTTP client: connect, send request, invoke callback with the
/// response (nullopt on connection failure/reset/timeout).
class HttpClient {
 public:
  using Callback = std::function<void(std::optional<HttpResponse>)>;

  /// Fetch `request` from `server`. The connection closes after the
  /// response arrives.
  static void fetch(net::HostStack& stack, util::Endpoint server,
                    HttpRequest request, Callback callback);
};

}  // namespace gq::svc

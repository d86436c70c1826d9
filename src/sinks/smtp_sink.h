// Fidelity-adjustable SMTP sink (paper §6.3): GQ's most complex sink.
// It terminates spambot SMTP sessions inside the farm so that no spam
// escapes, while presenting enough realism that bots keep spamming:
//
//  * banner grabbing — "SMTP requests to a hitherto unseen host now
//    caused the sink to actually connect out to the target SMTP server
//    and obtain the greeting message" (§7.1 "satisfying fidelity");
//    original-destination hints arrive out-of-band from the containment
//    server on a UDP side channel, since REFLECT rewrites the endpoint;
//  * probabilistic connection drops — Figure 7's note that REFLECTed
//    flow counts exceed SMTP session counts "because we configured the
//    SMTP sink to drop connections probabilistically";
//  * a protocol engine with strict and lenient modes — §7.1 "protocol
//    violations": a sink following RFC 821 too closely never reaches the
//    DATA stage with sloppy bots (repeated HELOs, malformed MAIL FROM),
//    gutting the spam harvest.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/stack.h"
#include "net/tcp.h"
#include "obs/telemetry.h"
#include "util/addr.h"
#include "util/rng.h"

namespace gq::sinks {

struct SmtpSinkConfig {
  /// Port the sink listens on (Figure 6 uses 2526).
  std::uint16_t port = 2526;
  /// UDP port for original-destination hints from the containment server.
  std::uint16_t hint_port = 2527;
  /// Fetch the greeting banner from the real target for unseen hosts.
  bool banner_grabbing = false;
  /// Greeting used when not grabbing (or as fallback).
  std::string static_banner = "220 mx.sink.gq ESMTP ready";
  /// Fraction of connections dropped right after accept.
  double drop_probability = 0.0;
  /// Strict RFC 821 protocol engine (the failure mode of §7.1) vs the
  /// lenient engine that tolerates real-world bot sloppiness.
  bool strict_protocol = false;
  std::uint64_t seed = 0x5347;
};

/// One harvested message.
struct HarvestedMessage {
  util::Endpoint from;        ///< Inmate endpoint (internal address).
  std::string helo;
  std::string mail_from;
  std::vector<std::string> rcpt_to;
  std::string data;           ///< Full message body.
  util::TimePoint received;
};

class SmtpSink {
 public:
  SmtpSink(net::HostStack& stack, SmtpSinkConfig config);

  /// Record that flows from `inmate` were originally destined to
  /// `orig_dst` (sent by the containment server via the hint channel,
  /// or directly by test code).
  void add_destination_hint(util::Ipv4Addr inmate, util::Endpoint orig_dst);

  /// Join the farm-wide telemetry: sessions and completed DATA
  /// transfers are published as kSinkSession / kSinkData events and
  /// counted under "sink.<subfarm>.<service>.*". Null-safe: standalone
  /// sinks simply skip publication.
  void set_telemetry(obs::Telemetry* telemetry, std::string subfarm,
                     std::string service);

  // Counters for the Figure 7 report lines.
  [[nodiscard]] std::uint64_t sessions() const { return sessions_; }
  [[nodiscard]] std::uint64_t data_transfers() const {
    return data_transfers_;
  }
  [[nodiscard]] std::uint64_t dropped_connections() const {
    return dropped_; }
  [[nodiscard]] std::uint64_t banners_grabbed() const {
    return banners_grabbed_;
  }
  [[nodiscard]] const std::vector<HarvestedMessage>& harvest() const {
    return harvest_;
  }

  /// Per-source (inmate internal address) counters, for per-inmate
  /// report attribution.
  struct SourceStats {
    std::uint64_t sessions = 0;
    std::uint64_t data_transfers = 0;
  };
  [[nodiscard]] const std::map<util::Ipv4Addr, SourceStats>& by_source()
      const {
    return by_source_;
  }

  [[nodiscard]] const SmtpSinkConfig& config() const { return config_; }

 private:
  struct Session;

  void on_accept(std::shared_ptr<net::TcpConnection> conn);
  void begin_session(std::shared_ptr<Session> session);
  void handle_line(std::shared_ptr<Session> session, std::string line);
  void grab_banner(util::Endpoint target,
                   std::function<void(std::string)> done);
  void publish_sink_event(obs::FarmEvent::Kind kind, util::Endpoint source);

  net::HostStack& stack_;
  SmtpSinkConfig config_;
  util::Rng rng_;
  std::shared_ptr<net::UdpSocket> hint_sock_;
  std::map<util::Ipv4Addr, util::Endpoint> hints_;
  std::map<util::Ipv4Addr, std::string> banner_cache_;  // By target host.
  std::vector<HarvestedMessage> harvest_;
  std::map<util::Ipv4Addr, SourceStats> by_source_;
  std::uint64_t sessions_ = 0;
  std::uint64_t data_transfers_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t banners_grabbed_ = 0;

  obs::Telemetry* telemetry_ = nullptr;
  std::string subfarm_name_;
  std::string service_name_;
  obs::Counter* sessions_ctr_ = nullptr;
  obs::Counter* data_ctr_ = nullptr;
  obs::Counter* dropped_ctr_ = nullptr;
};

}  // namespace gq::sinks

// Simulator-hosted TCP. Every application in the farm — containment
// server, sink servers, C&C servers, malware behaviours — talks through
// TcpConnection. The implementation is a deliberately compact but
// honest TCP: 3-way handshake, cumulative ACKs, out-of-order reassembly,
// retransmission with exponential backoff, FIN/RST teardown. It must be
// real TCP at the segment level because GQ's gateway rewrites sequence
// numbers mid-stream (shim injection/stripping, flow splicing) and both
// endpoints have to keep working through that surgery.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netsim/event_loop.h"
#include "packet/frame_view.h"
#include "packet/headers.h"
#include "util/addr.h"

namespace gq::net {

class HostStack;

/// TCP connection states (RFC 793 subset; no TIME_WAIT — the simulator
/// has no wandering duplicates and ephemeral ports are never reused).
enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
};

const char* tcp_state_name(TcpState s);

/// One endpoint of a TCP connection. Created via HostStack::connect() or
/// delivered by a listener's accept callback. All callbacks fire on the
/// event loop; the object stays alive while the stack tracks it or any
/// callback closure holds the shared_ptr.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  /// Application event hooks. Set them before data can arrive (i.e., in
  /// the accept callback, or immediately after connect()).
  std::function<void()> on_connected;
  std::function<void(std::span<const std::uint8_t>)> on_data;
  std::function<void()> on_remote_close;  ///< Peer sent FIN.
  std::function<void()> on_closed;        ///< Connection fully terminated.
  std::function<void()> on_reset;         ///< Terminated by RST or timeout.

  TcpConnection(HostStack& stack, util::Endpoint local, util::Endpoint remote);
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Queue bytes for transmission; segmentation and pacing are handled
  /// internally. Ignored (with a warning) once closing.
  void send(std::span<const std::uint8_t> data);
  void send(std::string_view text);

  /// Graceful close: FIN after all queued data is sent.
  void close();

  /// Hard close: RST immediately.
  void abort();

  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] util::Endpoint local() const { return local_; }
  [[nodiscard]] util::Endpoint remote() const { return remote_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t bytes_received() const {
    return bytes_received_;
  }

  // --- Stack-internal interface (not for applications) ---

  /// Start an active open (SYN).
  void start_connect();

  /// Fail an active open that could not bind a local port: the
  /// connection stays closed, sends nothing, and on the next loop turn
  /// reports a reset (on_reset, then on_closed).
  void fail_connect();

  /// Start a passive open in response to `syn`.
  void start_accept(const pkt::FrameView& syn);

  /// Process one inbound segment addressed to this connection.
  void input(const pkt::FrameView& seg);

 private:
  static constexpr std::size_t kMss = 1460;
  static constexpr std::size_t kSendWindow = 64 * 1024;
  static constexpr int kMaxRetries = 6;

  void emit(std::uint8_t flags, std::uint32_t seq,
            std::span<const std::uint8_t> payload);
  void send_ack();
  void pump_output();
  void handle_established_data(const pkt::FrameView& seg);
  void process_ack(std::uint32_t ack);
  void deliver_in_order();
  void maybe_send_fin();
  void arm_retransmit();
  void cancel_retransmit();
  void on_retransmit_timeout();
  void enter_closed(bool reset);

  HostStack& stack_;
  util::Endpoint local_;
  util::Endpoint remote_;
  TcpState state_ = TcpState::kClosed;

  // Send side.
  std::uint32_t iss_ = 0;       // Initial send sequence.
  std::uint32_t snd_una_ = 0;   // Oldest unacknowledged.
  std::uint32_t snd_nxt_ = 0;   // Next to send.
  std::vector<std::uint8_t> send_buf_;  // Unacked + unsent bytes.
  std::size_t unsent_offset_ = 0;       // send_buf_[unsent_offset_..) unsent.
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;

  // Receive side.
  std::uint32_t rcv_nxt_ = 0;
  std::map<std::uint32_t, std::vector<std::uint8_t>> out_of_order_;
  bool fin_received_ = false;

  // Retransmission.
  sim::EventId rtx_timer_ = 0;
  bool rtx_armed_ = false;
  int retries_ = 0;
  util::Duration rto_ = util::milliseconds(200);

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace gq::net

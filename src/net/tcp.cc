#include "net/tcp.h"

#include <algorithm>

#include "net/stack.h"
#include "util/log.h"

namespace gq::net {

namespace {
constexpr const char* kLog = "tcp";

// Sequence-number comparison with wraparound (RFC 1982 style).
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
}  // namespace

const char* tcp_state_name(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kClosing: return "CLOSING";
  }
  return "?";
}

TcpConnection::TcpConnection(HostStack& stack, util::Endpoint local,
                             util::Endpoint remote)
    : stack_(stack), local_(local), remote_(remote) {}

TcpConnection::~TcpConnection() { cancel_retransmit(); }

void TcpConnection::start_connect() {
  iss_ = stack_.random_isn();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  state_ = TcpState::kSynSent;
  emit(pkt::kTcpSyn, iss_, {});
  arm_retransmit();
}

void TcpConnection::fail_connect() {
  // The state stays kClosed, so send/close/abort are no-ops meanwhile.
  auto self = shared_from_this();
  stack_.loop().schedule_in(util::Duration{}, [self] {
    if (self->on_reset) self->on_reset();
    if (self->on_closed) self->on_closed();
  });
}

void TcpConnection::start_accept(const pkt::FrameView& syn) {
  iss_ = stack_.random_isn();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  rcv_nxt_ = syn.tcp_seq() + 1;
  state_ = TcpState::kSynReceived;
  emit(pkt::kTcpSyn | pkt::kTcpAck, iss_, {});
  arm_retransmit();
}

void TcpConnection::send(std::span<const std::uint8_t> data) {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kSynSent && state_ != TcpState::kSynReceived) {
    GQ_WARN(kLog, "%s: send() in state %s ignored", stack_.name().c_str(),
            tcp_state_name(state_));
    return;
  }
  if (fin_pending_ || fin_sent_) {
    GQ_WARN(kLog, "%s: send() after close() ignored", stack_.name().c_str());
    return;
  }
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  pump_output();
}

void TcpConnection::send(std::string_view text) {
  send(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

void TcpConnection::close() {
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      state_ = TcpState::kLastAck;
      break;
    case TcpState::kSynSent:
    case TcpState::kSynReceived:
      enter_closed(false);
      return;
    default:
      return;  // Already closing or closed.
  }
  fin_pending_ = true;
  maybe_send_fin();
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  emit(pkt::kTcpRst | pkt::kTcpAck, snd_nxt_, {});
  enter_closed(true);
}

void TcpConnection::emit(std::uint8_t flags, std::uint32_t seq,
                         std::span<const std::uint8_t> payload) {
  const pkt::TcpHeader tcp{.src_port = local_.port,
                           .dst_port = remote_.port,
                           .seq = seq,
                           .ack = (flags & pkt::kTcpAck) ? rcv_nxt_ : 0,
                           .flags = flags};
  stack_.send_tcp(remote_.addr, tcp, payload);
}

void TcpConnection::send_ack() { emit(pkt::kTcpAck, snd_nxt_, {}); }

void TcpConnection::pump_output() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kLastAck)
    return;
  // Bytes in flight = snd_nxt - snd_una (minus the FIN if counted).
  while (unsent_offset_ < send_buf_.size()) {
    const std::uint32_t in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= kSendWindow) break;
    const std::size_t chunk =
        std::min({send_buf_.size() - unsent_offset_, kMss,
                  kSendWindow - in_flight});
    std::span<const std::uint8_t> payload(send_buf_.data() + unsent_offset_,
                                          chunk);
    emit(pkt::kTcpAck | pkt::kTcpPsh, snd_nxt_, payload);
    snd_nxt_ += static_cast<std::uint32_t>(chunk);
    unsent_offset_ += chunk;
    bytes_sent_ += chunk;
  }
  if (snd_una_ != snd_nxt_) arm_retransmit();
  maybe_send_fin();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_) return;
  if (unsent_offset_ < send_buf_.size()) return;  // Data still queued.
  fin_seq_ = snd_nxt_;
  emit(pkt::kTcpFin | pkt::kTcpAck, snd_nxt_, {});
  snd_nxt_ += 1;
  fin_sent_ = true;
  arm_retransmit();
}

void TcpConnection::process_ack(std::uint32_t ack) {
  if (seq_le(ack, snd_una_)) return;  // Duplicate/old ACK.
  if (seq_lt(snd_nxt_, ack)) return;  // Acks data we never sent; ignore.
  std::uint32_t acked = ack - snd_una_;
  // The SYN and FIN occupy sequence space but not the send buffer.
  std::uint32_t buffer_acked = acked;
  if (state_ == TcpState::kSynSent || state_ == TcpState::kSynReceived)
    buffer_acked = 0;  // Handshake ACK handled by caller.
  if (fin_sent_ && seq_lt(fin_seq_, ack) && buffer_acked > 0)
    buffer_acked -= 1;
  buffer_acked = std::min<std::uint32_t>(
      buffer_acked, static_cast<std::uint32_t>(unsent_offset_));
  if (buffer_acked > 0) {
    send_buf_.erase(send_buf_.begin(), send_buf_.begin() + buffer_acked);
    unsent_offset_ -= buffer_acked;
  }
  snd_una_ = ack;
  retries_ = 0;
  rto_ = util::milliseconds(200);
  if (snd_una_ == snd_nxt_)
    cancel_retransmit();
  else
    arm_retransmit();
}

void TcpConnection::input(const pkt::FrameView& seg) {
  if (seg.tcp_rst()) {
    if (state_ != TcpState::kClosed) {
      GQ_DEBUG(kLog, "%s: RST from %s", stack_.name().c_str(),
               remote_.str().c_str());
      enter_closed(true);
    }
    return;
  }

  switch (state_) {
    case TcpState::kSynSent: {
      if (seg.tcp_syn() && seg.tcp_has_ack() && seg.tcp_ack() == iss_ + 1) {
        rcv_nxt_ = seg.tcp_seq() + 1;
        process_ack(seg.tcp_ack());
        state_ = TcpState::kEstablished;
        send_ack();
        if (on_connected) on_connected();
        pump_output();
      }
      return;
    }
    case TcpState::kSynReceived: {
      if (seg.tcp_has_ack() && seg.tcp_ack() == iss_ + 1) {
        process_ack(seg.tcp_ack());
        state_ = TcpState::kEstablished;
        if (on_connected) on_connected();
        // Fall through to handle any data carried on the ACK.
        handle_established_data(seg);
        pump_output();
      } else if (seg.tcp_syn()) {
        // Retransmitted SYN: repeat our SYN-ACK.
        emit(pkt::kTcpSyn | pkt::kTcpAck, iss_, {});
      }
      return;
    }
    case TcpState::kClosed:
      return;
    default:
      break;
  }

  if (seg.tcp_syn()) {
    // Spurious SYN on an established connection: retransmitted handshake;
    // re-ACK our current position.
    send_ack();
    return;
  }

  if (seg.tcp_has_ack()) process_ack(seg.tcp_ack());

  handle_established_data(seg);

  // FIN processing (only once all preceding data has been received).
  if (seg.tcp_fin() && !fin_received_ && seg.tcp_seq() == rcv_nxt_) {
    fin_received_ = true;
    rcv_nxt_ += 1;
    send_ack();
    if (on_remote_close) on_remote_close();
    switch (state_) {
      case TcpState::kEstablished:
        state_ = TcpState::kCloseWait;
        break;
      case TcpState::kFinWait1:
        state_ = TcpState::kClosing;
        break;
      case TcpState::kFinWait2:
        enter_closed(false);
        return;
      default:
        break;
    }
  } else if (seg.tcp_fin() && fin_received_) {
    send_ack();  // Retransmitted FIN.
  }

  // Progress our own teardown once our FIN is acknowledged.
  if (fin_sent_ && seq_lt(fin_seq_, snd_una_)) {
    switch (state_) {
      case TcpState::kFinWait1:
        state_ = TcpState::kFinWait2;
        break;
      case TcpState::kClosing:
      case TcpState::kLastAck:
        enter_closed(false);
        return;
      default:
        break;
    }
  }
  pump_output();
}

void TcpConnection::handle_established_data(const pkt::FrameView& seg) {
  if (seg.payload_len() == 0) return;
  std::uint32_t seq = seg.tcp_seq();
  std::span<const std::uint8_t> payload = seg.payload();

  if (seq_lt(rcv_nxt_, seq)) {
    // Future data: stash for reassembly.
    out_of_order_[seq] =
        std::vector<std::uint8_t>(payload.begin(), payload.end());
    send_ack();  // Duplicate ACK signals the gap.
    return;
  }
  // Trim any already-received prefix.
  const std::uint32_t overlap = rcv_nxt_ - seq;
  if (overlap >= payload.size()) {
    send_ack();  // Entirely duplicate.
    return;
  }
  payload = payload.subspan(overlap);
  rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
  bytes_received_ += payload.size();
  // Deliver, keeping `this` alive through the callback.
  auto self = shared_from_this();
  if (on_data) on_data(payload);
  deliver_in_order();
  send_ack();
}

void TcpConnection::deliver_in_order() {
  auto self = shared_from_this();
  while (!out_of_order_.empty()) {
    auto it = out_of_order_.begin();
    if (seq_lt(rcv_nxt_, it->first)) break;  // Still a gap.
    std::vector<std::uint8_t> data = std::move(it->second);
    const std::uint32_t seq = it->first;
    out_of_order_.erase(it);
    const std::uint32_t overlap = rcv_nxt_ - seq;
    if (overlap >= data.size()) continue;
    std::span<const std::uint8_t> payload(data.data() + overlap,
                                          data.size() - overlap);
    rcv_nxt_ += static_cast<std::uint32_t>(payload.size());
    bytes_received_ += payload.size();
    if (on_data) on_data(payload);
  }
}

void TcpConnection::arm_retransmit() {
  if (rtx_armed_) return;
  rtx_armed_ = true;
  auto self = shared_from_this();
  rtx_timer_ = stack_.loop().schedule_in(rto_, [self] {
    self->rtx_armed_ = false;
    self->on_retransmit_timeout();
  });
}

void TcpConnection::cancel_retransmit() {
  if (!rtx_armed_) return;
  stack_.loop().cancel(rtx_timer_);
  rtx_armed_ = false;
}

void TcpConnection::on_retransmit_timeout() {
  if (state_ == TcpState::kClosed) return;
  if (snd_una_ == snd_nxt_) return;  // Everything acked meanwhile.
  if (++retries_ > kMaxRetries) {
    GQ_WARN(kLog, "%s: %s -> %s retransmit limit, resetting",
            stack_.name().c_str(), local_.str().c_str(),
            remote_.str().c_str());
    abort();
    return;
  }
  rto_ = rto_ * 2;

  // Retransmit from snd_una_.
  if (state_ == TcpState::kSynSent) {
    emit(pkt::kTcpSyn, iss_, {});
  } else if (state_ == TcpState::kSynReceived) {
    emit(pkt::kTcpSyn | pkt::kTcpAck, iss_, {});
  } else {
    const std::uint32_t outstanding_data =
        static_cast<std::uint32_t>(unsent_offset_);
    if (outstanding_data > 0) {
      const std::size_t chunk =
          std::min<std::size_t>(outstanding_data, kMss);
      emit(pkt::kTcpAck | pkt::kTcpPsh, snd_una_,
           std::span<const std::uint8_t>(send_buf_.data(), chunk));
    } else if (fin_sent_) {
      emit(pkt::kTcpFin | pkt::kTcpAck, fin_seq_, {});
    }
  }
  arm_retransmit();
}

void TcpConnection::enter_closed(bool reset) {
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  cancel_retransmit();
  auto self = shared_from_this();
  stack_.remove_connection(*this);
  if (reset && on_reset) on_reset();
  if (on_closed) on_closed();
}

}  // namespace gq::net

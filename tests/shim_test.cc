// Shim protocol tests: exact wire sizes (24-byte request; the paper's
// Figure 4 response extended to >= 84 bytes by the typed parameter
// block and the cache block), round-trips, rejection of malformed input
// including every non-v3 version byte, and the stream-scanning helper
// the gateway uses.
#include <gtest/gtest.h>

#include "shim/shim.h"
#include "util/bytes.h"

namespace gq::shim {
namespace {

using util::Endpoint;
using util::Ipv4Addr;

RequestShim sample_request() {
  RequestShim shim;
  shim.orig = {Ipv4Addr(10, 0, 0, 23), 1234};
  shim.resp = {Ipv4Addr(192, 150, 187, 12), 80};
  shim.vlan = 12;
  shim.nonce_port = 42;
  return shim;
}

TEST(RequestShim, ExactlyTwentyFourBytes) {
  EXPECT_EQ(sample_request().encode().size(), 24u);
  EXPECT_EQ(kRequestShimSize, 24u);
}

TEST(RequestShim, RoundTrip) {
  auto bytes = sample_request().encode();
  auto parsed = RequestShim::parse(bytes);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->orig.addr.str(), "10.0.0.23");
  EXPECT_EQ(parsed->orig.port, 1234);
  EXPECT_EQ(parsed->resp.addr.str(), "192.150.187.12");
  EXPECT_EQ(parsed->resp.port, 80);
  EXPECT_EQ(parsed->vlan, 12);
  EXPECT_EQ(parsed->nonce_port, 42);
}

TEST(RequestShim, PreambleLayout) {
  auto bytes = sample_request().encode();
  // Magic (4) | length (2) | type (1) | version (1).
  EXPECT_EQ(bytes[0], 0x47);  // 'G'
  EXPECT_EQ(bytes[1], 0x51);  // 'Q'
  EXPECT_EQ(bytes[2], 0x53);  // 'S'
  EXPECT_EQ(bytes[3], 0x48);  // 'H'
  EXPECT_EQ((bytes[4] << 8) | bytes[5], 24);
  EXPECT_EQ(bytes[6], kTypeRequest);
  EXPECT_EQ(bytes[7], kShimVersion);
}

TEST(RequestShim, RejectsWrongMagicAndTruncation) {
  auto bytes = sample_request().encode();
  auto corrupted = bytes;
  corrupted[0] ^= 0xFF;
  EXPECT_FALSE(RequestShim::parse(corrupted));
  bytes.resize(23);
  EXPECT_FALSE(RequestShim::parse(bytes));
}

TEST(RequestShim, RejectsResponseType) {
  ResponseShim response;
  response.policy_name = "X";
  EXPECT_FALSE(RequestShim::parse(response.encode()));
}

TEST(ResponseShim, WireSizes) {
  ResponseShim shim;
  shim.verdict = Verdict::kForward;
  shim.policy_name = "Rustock";
  // The 16-byte cache block ends the fixed 84-byte layout; 84 is the
  // floor any well-formed response must clear.
  EXPECT_EQ(shim.encode().size(), 84u);
  EXPECT_EQ(kResponseShimMinSize, 84u);
}

TEST(ResponseShim, RoundTripWithAnnotation) {
  ResponseShim shim;
  shim.orig = {Ipv4Addr(10, 0, 0, 23), 1234};
  shim.resp = {Ipv4Addr(10, 3, 1, 4), 2526};
  shim.verdict = Verdict::kReflect;
  shim.policy_name = "Grum";
  shim.annotation = "full SMTP containment";
  auto bytes = shim.encode();
  EXPECT_EQ(bytes.size(), 84u + shim.annotation.size());
  std::size_t consumed = 0;
  auto parsed = ResponseShim::parse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(parsed->verdict, Verdict::kReflect);
  EXPECT_EQ(parsed->policy_name, "Grum");
  EXPECT_EQ(parsed->annotation, "full SMTP containment");
  EXPECT_EQ(parsed->resp.port, 2526);
  EXPECT_FALSE(parsed->limit_bytes_per_sec.has_value());
}

TEST(ResponseShim, TypedLimitRateRoundTrips) {
  ResponseShim shim;
  shim.verdict = Verdict::kLimit;
  shim.policy_name = "Throttle";
  shim.limit_bytes_per_sec = 4096;
  shim.annotation = "limit 4096 B/s";  // Descriptive only, never parsed.
  auto parsed = ResponseShim::parse(shim.encode());
  ASSERT_TRUE(parsed);
  ASSERT_TRUE(parsed->limit_bytes_per_sec.has_value());
  EXPECT_EQ(*parsed->limit_bytes_per_sec, 4096);
}

TEST(ResponseShim, ParameterBlockLayout) {
  ResponseShim shim;
  shim.verdict = Verdict::kLimit;
  shim.limit_bytes_per_sec = 0x0102030405060708;
  auto bytes = shim.encode();
  // Flags word at [56-59] with the has-limit-rate bit set, big-endian
  // rate at [60-67].
  EXPECT_EQ(bytes[56], 0u);
  EXPECT_EQ(bytes[59], kParamHasLimitRate);
  EXPECT_EQ(bytes[60], 0x01);
  EXPECT_EQ(bytes[67], 0x08);
  // Without a rate (and uncacheable, epoch 0) both the parameter block
  // [56,68) and the cache block [68,84) are all zero.
  ResponseShim bare;
  auto bare_bytes = bare.encode();
  for (std::size_t i = 56; i < 84; ++i)
    EXPECT_EQ(bare_bytes[i], 0u) << "offset " << i;
}

TEST(ResponseShim, CacheBlockLayout) {
  ResponseShim shim;
  shim.verdict = Verdict::kDrop;
  shim.cacheable = true;
  shim.cache_scope = CacheScope::kDstPort;
  shim.cache_ttl_ms = 0x0A0B0C0D;
  shim.policy_epoch = 0x1112131415161718;
  auto bytes = shim.encode();
  ASSERT_EQ(bytes.size(), 84u);
  // The cacheable bit lives in the parameter-block flags word.
  EXPECT_EQ(bytes[59] & kParamCacheable, kParamCacheable);
  // Scope (1) + reserved (3) at [68-71], TTL at [72-75], epoch [76-83].
  EXPECT_EQ(bytes[68], static_cast<std::uint8_t>(CacheScope::kDstPort));
  EXPECT_EQ(bytes[69], 0u);
  EXPECT_EQ(bytes[70], 0u);
  EXPECT_EQ(bytes[71], 0u);
  EXPECT_EQ(bytes[72], 0x0A);
  EXPECT_EQ(bytes[75], 0x0D);
  EXPECT_EQ(bytes[76], 0x11);
  EXPECT_EQ(bytes[83], 0x18);
}

TEST(ResponseShim, CacheBlockRoundTrips) {
  ResponseShim shim;
  shim.verdict = Verdict::kForward;
  shim.policy_name = "ScanAdmit";
  shim.cacheable = true;
  shim.cache_scope = CacheScope::kDstEndpoint;
  shim.cache_ttl_ms = 30000;
  shim.policy_epoch = 7;
  shim.annotation = "cacheable scan admit";
  auto parsed = ResponseShim::parse(shim.encode());
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->cacheable);
  EXPECT_EQ(parsed->cache_scope, CacheScope::kDstEndpoint);
  EXPECT_EQ(parsed->cache_ttl_ms, 30000u);
  EXPECT_EQ(parsed->policy_epoch, 7u);
  EXPECT_EQ(parsed->annotation, "cacheable scan admit");
}

TEST(ResponseShim, EpochCarriedOnUncacheableResponses) {
  ResponseShim shim;
  shim.verdict = Verdict::kRewrite;
  shim.policy_epoch = 42;
  auto parsed = ResponseShim::parse(shim.encode());
  ASSERT_TRUE(parsed);
  EXPECT_FALSE(parsed->cacheable);
  EXPECT_EQ(parsed->policy_epoch, 42u);
}

TEST(ResponseShim, NonV3VersionsAreRejected) {
  ResponseShim shim;
  shim.verdict = Verdict::kLimit;
  shim.policy_name = "Throttle";
  shim.limit_bytes_per_sec = 2048;
  shim.annotation = "other version";
  const auto v3 = shim.encode();
  ASSERT_TRUE(ResponseShim::parse(v3));
  ASSERT_TRUE(complete_shim_length(v3, kTypeResponse));
  // Version 3 is the only stream-shim version: an otherwise well-formed
  // response carrying any other version byte is malformed input, to the
  // parser and to the stream scanner alike.
  for (const std::uint8_t version : {2, 1, 4, 0xFF}) {
    auto bytes = v3;
    bytes[7] = version;
    EXPECT_FALSE(ResponseShim::parse(bytes)) << "version " << int{version};
    EXPECT_FALSE(complete_shim_length(bytes, kTypeResponse))
        << "version " << int{version};
  }
}

TEST(ResponseShim, RejectsInvalidCacheScope) {
  ResponseShim shim;
  shim.verdict = Verdict::kForward;
  auto bytes = shim.encode();
  ASSERT_EQ(bytes.size(), 84u);
  bytes[68] = 3;  // One past kDstPort.
  EXPECT_FALSE(ResponseShim::parse(bytes));
}

TEST(ResponseShim, PolicyNameTruncatedTo32) {
  ResponseShim shim;
  shim.policy_name = std::string(64, 'P');
  auto parsed = ResponseShim::parse(shim.encode());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->policy_name, std::string(32, 'P'));
}

TEST(ResponseShim, AllVerdictOpcodesRoundTrip) {
  for (auto verdict :
       {Verdict::kForward, Verdict::kLimit, Verdict::kDrop,
        Verdict::kRedirect, Verdict::kReflect, Verdict::kRewrite}) {
    ResponseShim shim;
    shim.verdict = verdict;
    auto parsed = ResponseShim::parse(shim.encode());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->verdict, verdict);
  }
}

TEST(ResponseShim, RejectsInvalidOpcode) {
  ResponseShim shim;
  auto bytes = shim.encode();
  // The opcode lives right after preamble (8) + four-tuple (12).
  bytes[20] = 0;
  bytes[21] = 0;
  bytes[22] = 0;
  bytes[23] = 99;
  EXPECT_FALSE(ResponseShim::parse(bytes));
}

TEST(ResponseShim, ParseFromStreamPrefixOnly) {
  // The gateway scans a reassembled stream: shim followed by payload.
  ResponseShim shim;
  shim.verdict = Verdict::kRewrite;
  shim.policy_name = "Rustock";
  auto bytes = shim.encode();
  const std::size_t shim_len = bytes.size();
  auto trailing = util::to_bytes("HTTP/1.1 200 OK\r\n");
  bytes.insert(bytes.end(), trailing.begin(), trailing.end());
  std::size_t consumed = 0;
  auto parsed = ResponseShim::parse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(consumed, shim_len);
}

TEST(CompleteShimLength, DetectsPartialAndComplete) {
  ResponseShim shim;
  shim.annotation = "xyz";
  auto bytes = shim.encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> partial(bytes.data(), cut);
    EXPECT_FALSE(complete_shim_length(partial, kTypeResponse))
        << "cut=" << cut;
  }
  auto full = complete_shim_length(bytes, kTypeResponse);
  ASSERT_TRUE(full);
  EXPECT_EQ(*full, bytes.size());
  EXPECT_FALSE(complete_shim_length(bytes, kTypeRequest));
}

TEST(VerdictNames, AllNamed) {
  EXPECT_STREQ(verdict_name(Verdict::kForward), "FORWARD");
  EXPECT_STREQ(verdict_name(Verdict::kLimit), "LIMIT");
  EXPECT_STREQ(verdict_name(Verdict::kDrop), "DROP");
  EXPECT_STREQ(verdict_name(Verdict::kRedirect), "REDIRECT");
  EXPECT_STREQ(verdict_name(Verdict::kReflect), "REFLECT");
  EXPECT_STREQ(verdict_name(Verdict::kRewrite), "REWRITE");
}

}  // namespace
}  // namespace gq::shim

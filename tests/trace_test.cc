// Trace subsystem tests: rotating archiver semantics (rotation,
// eviction, stable locations), pcap caplen hardening, flow indexing,
// archive save/load round trips, tap metrics — and the golden-trace
// regression: replaying an archived inmate-side capture through a
// freshly built farm must reproduce the verdict event sequence and the
// upstream egress bit-identically (trace/replay.h's contract), for
// more than one seed.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "containment/policy.h"
#include "core/farm.h"
#include "flowdb/flowdb.h"
#include "flowdb/store.h"
#include "packet/frame.h"
#include "packet/pcap.h"
#include "trace/archive.h"
#include "trace/flow_index.h"
#include "trace/replay.h"
#include "trace/tap.h"

namespace gq {
namespace {

using util::Ipv4Addr;

std::vector<std::uint8_t> tcp_frame(Ipv4Addr src, Ipv4Addr dst,
                                    std::uint16_t sport, std::uint16_t dport,
                                    std::size_t payload = 16,
                                    std::optional<std::uint16_t> vlan = {}) {
  pkt::DecodedFrame frame;
  frame.eth.ethertype = pkt::kEtherTypeIpv4;
  frame.eth.vlan = vlan;
  frame.ip = pkt::Ipv4Packet{};
  frame.ip->src = src;
  frame.ip->dst = dst;
  frame.tcp = pkt::TcpSegment{};
  frame.tcp->src_port = sport;
  frame.tcp->dst_port = dport;
  frame.tcp->payload.assign(payload, 0x61);
  return frame.encode();
}

// --- PcapWriter hardening (satellite: caplen clamp) -----------------------

TEST(Pcap, RecordClampsCaplenAndKeepsOrigLen) {
  pkt::PcapWriter writer;
  std::vector<std::uint8_t> oversize(pkt::kPcapSnapLen + 1000, 0xAB);
  writer.record(util::TimePoint{42}, oversize);

  const auto parsed = pkt::parse_pcap(writer.contents());
  ASSERT_EQ(parsed.size(), 1u);
  // Captured bytes clamp to the snap length; orig_len remembers the
  // frame's true wire size so consumers can detect the truncation.
  EXPECT_EQ(parsed[0].frame.size(), pkt::kPcapSnapLen);
  EXPECT_EQ(parsed[0].orig_len, oversize.size());
  EXPECT_TRUE(std::equal(parsed[0].frame.begin(), parsed[0].frame.end(),
                         oversize.begin()));
}

TEST(Pcap, UntruncatedRecordRoundTrips) {
  pkt::PcapWriter writer;
  const auto frame = tcp_frame(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                               1234, 80);
  writer.record(util::TimePoint{7}, frame);
  const auto parsed = pkt::parse_pcap(writer.contents());
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].frame, frame);
  EXPECT_EQ(parsed[0].orig_len, frame.size());
  EXPECT_EQ(parsed[0].time.usec, 7);
}

TEST(Pcap, ParseRejectsOversizeCaplen) {
  // Hand-craft a record header claiming caplen > snaplen: parse must
  // stop rather than attempt a giant allocation.
  pkt::PcapWriter writer;
  writer.record(util::TimePoint{1}, std::vector<std::uint8_t>(10, 0x01));
  std::vector<std::uint8_t> bytes(writer.contents().begin(),
                                  writer.contents().end());
  // incl_len lives 8 bytes into the record header.
  const std::size_t incl_off = pkt::kPcapFileHeaderSize + 8;
  const std::uint32_t bogus = pkt::kPcapSnapLen + 1;
  std::memcpy(bytes.data() + incl_off, &bogus, 4);
  EXPECT_TRUE(pkt::parse_pcap(bytes).empty());
}

TEST(Pcap, ParseRejectsCaplenAboveOrigLen) {
  pkt::PcapWriter writer;
  writer.record(util::TimePoint{1}, std::vector<std::uint8_t>(10, 0x01));
  std::vector<std::uint8_t> bytes(writer.contents().begin(),
                                  writer.contents().end());
  const std::size_t orig_off = pkt::kPcapFileHeaderSize + 12;
  const std::uint32_t bogus = 4;  // orig_len < incl_len: inconsistent.
  std::memcpy(bytes.data() + orig_off, &bogus, 4);
  EXPECT_TRUE(pkt::parse_pcap(bytes).empty());
}

TEST(Pcap, ParseReturnsValidPrefixOfTruncatedBuffer) {
  pkt::PcapWriter writer;
  for (int i = 0; i < 3; ++i)
    writer.record(util::TimePoint{i},
                  std::vector<std::uint8_t>(20 + i, 0x55));
  std::vector<std::uint8_t> bytes(writer.contents().begin(),
                                  writer.contents().end());
  // Cut mid-way through the third record: the first two parse.
  bytes.resize(bytes.size() - 10);
  const auto parsed = pkt::parse_pcap(bytes);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].frame.size(), 20u);
  EXPECT_EQ(parsed[1].frame.size(), 21u);
}

// --- TraceArchiver --------------------------------------------------------

TEST(TraceArchiver, RotatesAtSegmentBudgetAndEvictsOldest) {
  trace::ArchiveConfig config;
  config.segment_bytes = 512;
  config.max_segments = 3;
  trace::TraceArchiver archive(config);

  const auto frame = std::vector<std::uint8_t>(100, 0x42);
  for (int i = 0; i < 64; ++i) archive.record(util::TimePoint{i}, frame);

  EXPECT_EQ(archive.segment_count(), 3u);
  EXPECT_GT(archive.evicted_segments(), 0u);
  EXPECT_EQ(archive.total_packets(), 64u);
  EXPECT_EQ(archive.retained_packets() + archive.evicted_packets(), 64u);
  // Memory stays within budget: each segment holds the header plus at
  // most one record past the rotation threshold.
  for (const auto& segment : archive.segments())
    EXPECT_LE(segment.pcap.size_bytes(),
              config.segment_bytes + 16 + frame.size());
  // Retained seqs are contiguous and the active tail is the newest.
  const auto& segments = archive.segments();
  for (std::size_t i = 1; i < segments.size(); ++i)
    EXPECT_EQ(segments[i].seq, segments[i - 1].seq + 1);
}

TEST(TraceArchiver, LocationsResolveUntilEvicted) {
  trace::ArchiveConfig config;
  config.segment_bytes = 256;
  config.max_segments = 2;
  trace::TraceArchiver archive(config);

  std::vector<trace::Location> locations;
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 32; ++i) {
    frames.push_back(std::vector<std::uint8_t>(50, std::uint8_t(i)));
    locations.push_back(archive.record(util::TimePoint{i}, frames.back()));
  }
  std::size_t resolved = 0;
  for (std::size_t i = 0; i < locations.size(); ++i) {
    const auto record = archive.record_at(locations[i]);
    if (!record) continue;  // Rotated out.
    ++resolved;
    EXPECT_EQ(record->frame, frames[i]);
    EXPECT_EQ(record->time.usec, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(resolved, archive.retained_packets());
  EXPECT_GT(resolved, 0u);
  // A bogus offset inside a live segment does not resolve either.
  const auto live = locations.back();
  EXPECT_FALSE(archive.record_at({live.segment, live.offset + 1}));
}

TEST(TraceArchiver, ContentsIsOneValidPcap) {
  trace::ArchiveConfig config;
  config.segment_bytes = 300;
  config.max_segments = 4;
  trace::TraceArchiver archive(config);
  for (int i = 0; i < 20; ++i)
    archive.record(util::TimePoint{i}, std::vector<std::uint8_t>(40, 0x99));
  const auto parsed = pkt::parse_pcap(archive.contents());
  EXPECT_EQ(parsed.size(), archive.retained_packets());
}

// --- FlowIndex ------------------------------------------------------------

TEST(FlowIndex, CanonicalizesBidirectionally) {
  trace::FlowIndex index;
  const pkt::FlowKey key{pkt::FlowProto::kTcp,
                         {Ipv4Addr(10, 0, 0, 5), 1234},
                         {Ipv4Addr(1, 2, 3, 4), 80}};
  index.touch(key, 7, util::TimePoint{10}, 100, {0, 24});
  index.touch(key.reversed(), 7, util::TimePoint{20}, 60, {0, 140});
  index.touch(key, 7, util::TimePoint{30}, 100, {0, 216});

  ASSERT_EQ(index.flow_count(), 1u);
  const auto* flow = index.find(key.reversed(), 7);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->key, key);  // First-seen direction is canonical.
  EXPECT_EQ(flow->packets, 3u);
  EXPECT_EQ(flow->bytes, 260u);
  EXPECT_EQ(flow->first_time.usec, 10);
  EXPECT_EQ(flow->last_time.usec, 30);
  ASSERT_EQ(flow->locations.size(), 3u);

  // Same 5-tuple on a different VLAN is a different flow.
  index.touch(key, 8, util::TimePoint{40}, 100, {0, 316});
  EXPECT_EQ(index.flow_count(), 2u);
}

TEST(FlowIndex, AnnotateAttachesVerdict) {
  trace::FlowIndex index;
  const pkt::FlowKey key{pkt::FlowProto::kUdp,
                         {Ipv4Addr(10, 0, 0, 5), 5353},
                         {Ipv4Addr(8, 8, 8, 8), 53}};
  EXPECT_FALSE(index.annotate(key, 3, shim::Verdict::kDrop, "p"));
  index.touch(key, 3, util::TimePoint{1}, 80, {0, 24});
  EXPECT_TRUE(
      index.annotate(key.reversed(), 3, shim::Verdict::kForward, "dns-ok"));
  const auto* flow = index.find(key, 3);
  ASSERT_NE(flow, nullptr);
  EXPECT_TRUE(flow->has_verdict);
  EXPECT_EQ(flow->verdict, shim::Verdict::kForward);
  EXPECT_EQ(flow->policy_name, "dns-ok");
}

TEST(FlowIndex, RestoreRebuildsBidirectionalFindAfterSaveLoadRoundTrip) {
  // Convert a populated index to FlowDB rows (the on-disk form of an
  // archive's index) and back, restore into a fresh index and check
  // bidirectional find still resolves — including a kTable-annotated
  // flow from the compiled policy-table path and tenant/job
  // attribution.
  trace::FlowIndex index;
  const pkt::FlowKey shim_key{pkt::FlowProto::kTcp,
                              {Ipv4Addr(10, 9, 0, 4), 1234},
                              {Ipv4Addr(203, 0, 113, 9), 80}};
  const pkt::FlowKey table_key{pkt::FlowProto::kUdp,
                               {Ipv4Addr(10, 9, 0, 5), 5353},
                               {Ipv4Addr(8, 8, 8, 8), 53}};
  index.touch(shim_key, 12, util::TimePoint{100}, 80, {0, 24});
  index.touch(shim_key.reversed(), 12, util::TimePoint{150}, 60, {0, 120});
  index.touch(table_key, 12, util::TimePoint{200}, 90, {1, 24});
  ASSERT_TRUE(index.annotate(shim_key, 12, shim::Verdict::kRewrite, "botdl",
                             shim::VerdictSource::kShim));
  ASSERT_TRUE(index.annotate(table_key.reversed(), 12, shim::Verdict::kDrop,
                             "dns-table", shim::VerdictSource::kTable));
  for (auto& flow : const_cast<std::deque<trace::FlowRecord>&>(
           index.flows())) {
    flow.tenant = "acme";
    flow.job = 42;
  }

  trace::FlowIndex restored;
  for (const auto& flow : index.flows()) {
    const auto parsed = flowdb::record_from(flowdb::row_from(flow, "t"));
    ASSERT_TRUE(parsed);
    ASSERT_EQ(*parsed, flow);
    restored.restore(*parsed);
  }
  ASSERT_EQ(restored.flow_count(), index.flow_count());

  // find must resolve both directions of both flows after restore.
  for (const auto& key : {shim_key, table_key}) {
    const auto* forward = restored.find(key, 12);
    const auto* reverse = restored.find(key.reversed(), 12);
    ASSERT_NE(forward, nullptr) << key.str();
    EXPECT_EQ(forward, reverse) << key.str();
    EXPECT_EQ(forward->key, key) << key.str();
    EXPECT_EQ(forward->tenant, "acme");
    EXPECT_EQ(forward->job, 42u);
  }
  const auto* table_flow = restored.find(table_key.reversed(), 12);
  ASSERT_NE(table_flow, nullptr);
  EXPECT_TRUE(table_flow->has_verdict);
  EXPECT_EQ(table_flow->verdict, shim::Verdict::kDrop);
  EXPECT_EQ(table_flow->verdict_source, shim::VerdictSource::kTable);
  EXPECT_EQ(table_flow->policy_name, "dns-table");
  // Wrong VLAN still misses.
  EXPECT_EQ(restored.find(table_key, 13), nullptr);
}

// --- TraceTap: metrics, extraction, save/load -----------------------------

TEST(TraceTap, MetricsTrackRotation) {
  obs::Telemetry telemetry;
  trace::ArchiveConfig config;
  config.segment_bytes = 512;
  config.max_segments = 2;
  trace::TraceTap tap("t", config, &telemetry);

  const auto frame = tcp_frame(Ipv4Addr(10, 0, 0, 1), Ipv4Addr(10, 0, 0, 2),
                               1000, 80, 64);
  for (int i = 0; i < 40; ++i) tap.record(util::TimePoint{i}, frame);

  const auto& metrics = telemetry.metrics();
  ASSERT_NE(metrics.find_gauge("trace.t.segments"), nullptr);
  EXPECT_EQ(metrics.find_gauge("trace.t.segments")->value(),
            static_cast<std::int64_t>(tap.archive().segment_count()));
  EXPECT_EQ(metrics.find_gauge("trace.t.bytes")->value(),
            static_cast<std::int64_t>(tap.archive().retained_bytes()));
  EXPECT_EQ(metrics.find_counter("trace.t.evicted")->value(),
            tap.archive().evicted_segments());
  EXPECT_EQ(metrics.find_counter("trace.t.packets")->value(), 40u);
  EXPECT_GT(tap.archive().evicted_segments(), 0u);
}

TEST(TraceTap, ExtractFlowPullsOnlyThatFlow) {
  trace::TraceTap tap("t", {}, nullptr);
  const auto a = Ipv4Addr(10, 0, 0, 1);
  const auto b = Ipv4Addr(10, 0, 0, 2);
  const auto c = Ipv4Addr(10, 0, 0, 3);
  for (int i = 0; i < 6; ++i) {
    tap.record(util::TimePoint{i * 10}, tcp_frame(a, b, 1000, 80, 8));
    tap.record(util::TimePoint{i * 10 + 1}, tcp_frame(a, c, 1001, 443, 8));
  }
  const auto* flow = tap.index().find(
      {pkt::FlowProto::kTcp, {a, 1000}, {b, 80}}, 0);
  ASSERT_NE(flow, nullptr);
  const auto records = tap.extract_flow(*flow);
  ASSERT_EQ(records.size(), 6u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].time.usec, static_cast<std::int64_t>(i * 10));
    const auto decoded = pkt::decode_frame(records[i].frame);
    ASSERT_TRUE(decoded && decoded->ip);
    EXPECT_EQ(decoded->ip->dst, b);
  }
}

TEST(TraceTap, SaveLoadRoundTrip) {
  const std::string dir = "trace_test_roundtrip";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  trace::ArchiveConfig config;
  config.segment_bytes = 1024;
  config.max_segments = 3;
  trace::TraceTap tap("rt", config, nullptr);
  tap.set_context("umbrella", 9);
  const auto a = Ipv4Addr(10, 5, 0, 9);
  const auto b = Ipv4Addr(93, 184, 216, 34);
  const auto sink = Ipv4Addr(10, 3, 0, 99);
  for (int i = 0; i < 48; ++i)
    tap.record(util::TimePoint{i * 100},
               tcp_frame(a, b, 2000, 8001, 32, 17));
  for (int i = 0; i < 8; ++i)
    tap.record(util::TimePoint{4800 + i * 100},
               tcp_frame(a, sink, 2345, 25, 16, 17));
  tap.annotate({pkt::FlowProto::kTcp, {a, 2000}, {b, 8001}}, 17,
               shim::Verdict::kLimit, "limiter");
  tap.annotate({pkt::FlowProto::kTcp, {a, 2345}, {sink, 25}}, 17,
               shim::Verdict::kRedirect, "spam", shim::VerdictSource::kCached);
  ASSERT_TRUE(tap.save(dir));

  auto loaded = trace::load_trace(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->name(), "rt");
  EXPECT_EQ(loaded->contents(), tap.contents());
  EXPECT_EQ(loaded->archive().total_packets(), 56u);
  EXPECT_EQ(loaded->archive().evicted_segments(),
            tap.archive().evicted_segments());
  EXPECT_EQ(loaded->archive().evicted_packets(),
            tap.archive().evicted_packets());
  ASSERT_EQ(loaded->index().flow_count(), tap.index().flow_count());
  const auto* flow = loaded->index().find(
      {pkt::FlowProto::kTcp, {a, 2000}, {b, 8001}}, 17);
  ASSERT_NE(flow, nullptr);
  EXPECT_TRUE(flow->has_verdict);
  EXPECT_EQ(flow->verdict, shim::Verdict::kLimit);
  EXPECT_EQ(flow->verdict_source, shim::VerdictSource::kShim);
  EXPECT_EQ(flow->policy_name, "limiter");
  EXPECT_EQ(flow->packets, 48u);
  // A verdict served from the gateway cache keeps its source.
  const auto* cached = loaded->index().find(
      {pkt::FlowProto::kTcp, {a, 2345}, {sink, 25}}, 17);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->has_verdict);
  EXPECT_EQ(cached->verdict, shim::Verdict::kRedirect);
  EXPECT_EQ(cached->verdict_source, shim::VerdictSource::kCached);
  EXPECT_EQ(cached->policy_name, "spam");
  // Tenant/job attribution survives the manifest and flow round trip.
  EXPECT_EQ(loaded->tenant(), "umbrella");
  EXPECT_EQ(loaded->job(), 9u);
  EXPECT_EQ(flow->tenant, "umbrella");
  EXPECT_EQ(flow->job, 9u);
  // Extraction works identically on the loaded archive.
  EXPECT_EQ(loaded->extract_flow(*flow).size(),
            tap.extract_flow(*flow).size());

  std::filesystem::remove_all(dir, ec);
}

TEST(TraceTap, LoadRejectsMissingArchive) {
  EXPECT_FALSE(trace::load_trace("no_such_trace_dir").has_value());
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// A two-flow archive saved to a fresh `dir`, one flow with a verdict.
trace::TraceTap saved_two_flow_tap(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  trace::TraceTap tap("two", {}, nullptr);
  const auto a = Ipv4Addr(10, 5, 0, 9);
  const auto b = Ipv4Addr(93, 184, 216, 34);
  for (int i = 0; i < 4; ++i) {
    tap.record(util::TimePoint{i * 10}, tcp_frame(a, b, 2000, 80));
    tap.record(util::TimePoint{i * 10 + 1}, tcp_frame(a, b, 2001, 25));
  }
  tap.annotate({pkt::FlowProto::kTcp, {a, 2000}, {b, 80}}, 0,
               shim::Verdict::kForward, "web", shim::VerdictSource::kTable);
  EXPECT_TRUE(tap.save(dir));
  return tap;
}

TEST(TraceTap, LoadRejectsUnsafeSegmentNames) {
  // A manifest names its pcap segments; a load reads only the file
  // save() would have written for that sequence number, never a path
  // the manifest makes up, and a number that fails to parse fails the
  // load instead of reading as 0.
  const std::string dir = "trace_test_unsafe";
  saved_two_flow_tap(dir);
  const std::string manifest = read_text(dir + "/manifest.txt");
  ASSERT_TRUE(trace::load_trace(dir).has_value());  // Control.
  const std::string segment = "segment-00000000.pcap";
  ASSERT_NE(manifest.find(segment), std::string::npos);
  // The same pcap bytes under other names, one of them outside `dir`.
  std::filesystem::copy_file(dir + "/" + segment, "trace_test_outside.pcap",
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy_file(dir + "/" + segment, dir + "/other.pcap",
                             std::filesystem::copy_options::overwrite_existing);
  const std::pair<std::string, std::string> edits[] = {
      {segment, "../trace_test_outside.pcap"},
      {segment, "other.pcap"},
      {segment, "segment-00000001.pcap"},
      {segment, "./" + segment},
      {"segment 0 ", "segment x "},
      {"total_packets ", "total_packets x"},
      {"evicted_bytes ", "evicted_bytes -"},
  };
  for (const auto& [from, to] : edits) {
    std::string edited = manifest;
    edited.replace(edited.find(from), from.size(), to);
    write_text(dir + "/manifest.txt", edited);
    EXPECT_FALSE(trace::load_trace(dir).has_value()) << from << " -> " << to;
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::remove("trace_test_outside.pcap", ec);
}

TEST(TraceTap, LoadRejectsVersionOneArchive) {
  // A `gq-trace 1` archive (index in a flows.txt text sidecar) fails
  // closed; so does any other version line.
  const std::string dir = "trace_test_v1";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir);
  write_text(dir + "/manifest.txt", "gq-trace 1\nname old\n");
  write_text(dir + "/flows.txt",
             "flow\ttcp\t10.0.0.1\t1\t10.0.0.2\t80\t0\t1\t60\t0\t0\t-\t-\t\n");
  EXPECT_FALSE(trace::load_trace(dir).has_value());

  saved_two_flow_tap(dir);
  ASSERT_TRUE(trace::load_trace(dir).has_value());  // Control.
  const std::string manifest = read_text(dir + "/manifest.txt");
  for (const char* magic : {"gq-trace 1", "gq-trace 3", "gq-trace"}) {
    write_text(dir + "/manifest.txt",
               magic + manifest.substr(manifest.find('\n')));
    EXPECT_FALSE(trace::load_trace(dir).has_value()) << magic;
  }
  std::filesystem::remove_all(dir, ec);
}

TEST(TraceTap, ResaveReplacesTheFlowStore) {
  const std::string dir = "trace_test_resave";
  const auto tap = saved_two_flow_tap(dir);
  ASSERT_TRUE(tap.save(dir));  // Second save into the same directory.
  const auto loaded = trace::load_trace(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->index().flow_count(), 2u);
  EXPECT_EQ(loaded->index().flows(), tap.index().flows());
  const auto store = flowdb::SegmentedReader::open(dir + "/flows");
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->segment_count(), 1u);
  EXPECT_EQ(store->rows(), 2u);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(TraceTap, EmptyIndexSavesAnEmptyStore) {
  const std::string dir = "trace_test_empty";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  const trace::TraceTap tap("empty", {}, nullptr);
  ASSERT_TRUE(tap.save(dir));
  const auto store = flowdb::SegmentedReader::open(dir + "/flows");
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->rows(), 0u);
  const auto loaded = trace::load_trace(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->index().flow_count(), 0u);
  std::filesystem::remove_all(dir, ec);
}

TEST(TraceTap, LoadRejectsOutOfRangeFlowRows) {
  // Reader does not range-check enum columns: a store row with a proto
  // other than tcp/udp, or a verdict or source outside its enum, is
  // sealed and pinned like any other, and record_from must reject it.
  const std::string dir = "trace_test_lying_rows";
  const auto tap = saved_two_flow_tap(dir);
  const auto lie = [&](auto edit) {
    flowdb::Writer writer;
    for (const auto& flow : tap.index().flows()) {
      auto row = flowdb::row_from(flow, tap.name());
      if (flow.has_verdict) edit(row);
      writer.add(std::move(row));
    }
    std::error_code ec;
    std::filesystem::remove_all(dir + "/flows", ec);
    auto store = flowdb::SegmentedStore::open(dir + "/flows");
    return store && store->append_segment(writer);
  };
  ASSERT_TRUE(lie([](flowdb::Row&) {}));
  ASSERT_TRUE(trace::load_trace(dir).has_value());  // Control.
  ASSERT_TRUE(lie([](flowdb::Row& r) { r.proto = pkt::FlowProto(1); }));
  EXPECT_FALSE(trace::load_trace(dir).has_value()) << "proto";
  ASSERT_TRUE(lie([](flowdb::Row& r) { r.verdict = 7; }));
  EXPECT_FALSE(trace::load_trace(dir).has_value()) << "verdict";
  ASSERT_TRUE(lie([](flowdb::Row& r) { r.source = 3; }));
  EXPECT_FALSE(trace::load_trace(dir).has_value()) << "source";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// --- Golden-trace replay regression ---------------------------------------

// Four-verdict cycling policy, keyed by destination port (a scripted
// stand-in for a real containment config; same shape as the soak's).
class ReplayPolicy : public cs::Policy {
 public:
  explicit ReplayPolicy(util::Endpoint sink)
      : cs::Policy("Replay"), sink_(sink) {}

  cs::Decision decide(const cs::FlowInfo& info) override {
    switch (info.dst().port) {
      case 8001: return cs::Decision::forward();
      case 8002: return cs::Decision::limit(4096);
      case 8003: return cs::Decision::drop("denied");
      case 8004: return cs::Decision::redirect(sink_, "redirected");
      default:   return cs::Decision::drop("unexpected port");
    }
  }

 private:
  util::Endpoint sink_;
};

constexpr std::uint16_t kReplayPorts[] = {8001, 8002, 8003, 8004};
const Ipv4Addr kEchoAddr(93, 184, 216, 34);
constexpr auto kRunLength = util::seconds(150);

struct RunLog {
  std::string events;                      // Canonical event stream.
  std::vector<std::uint8_t> upstream;      // Upstream tap capture.
  std::vector<pkt::PcapRecord> inmate_rx;  // Raw inmate-port ingress.
  std::uint64_t verdicts = 0;
};

// Identical farm assembly for recording and replay; the only difference
// is inmates (created last, so omitting them leaves every other
// construction-time RNG draw in place — see trace/replay.h).
struct ReplayRig {
  explicit ReplayRig(std::uint64_t seed) {
    core::FarmOptions options;
    options.seed = seed;
    // The inmate_rx capture must survive the whole run un-evicted: give
    // every tap plenty of segment budget.
    options.trace_archive.segment_bytes = 1 << 20;
    options.trace_archive.max_segments = 16;
    farm = std::make_unique<core::Farm>(options);

    auto& echo = farm->add_external_host("echo", kEchoAddr);
    for (const auto port : kReplayPorts)
      echo.listen(port, [](std::shared_ptr<net::TcpConnection> conn) {
        std::weak_ptr<net::TcpConnection> weak = conn;
        conn->on_data = [weak](std::span<const std::uint8_t> data) {
          if (auto c = weak.lock()) c->send(data);
        };
      });

    sub = &farm->add_subfarm("Replay");
    sub->add_catchall_sink();
    const auto sink = sub->policy_env().services.at("sink");
    sub->bind_policy(sub->router().config().vlan_first,
                     sub->router().config().vlan_last,
                     std::make_shared<ReplayPolicy>(sink));
  }

  std::unique_ptr<core::Farm> farm;
  core::Subfarm* sub = nullptr;
};

RunLog record_run(std::uint64_t seed) {
  ReplayRig rig(seed);
  trace::EventRecorder recorder(rig.farm->telemetry().bus());

  std::vector<inm::Inmate*> inmates;
  for (int i = 0; i < 2; ++i)
    inmates.push_back(&rig.sub->create_inmate(inm::HostingKind::kVm));

  std::vector<std::shared_ptr<net::TcpConnection>> conns;
  auto launch = [&](int index) {
    auto& host = inmates[index % inmates.size()]->host();
    if (!host.configured()) return;
    auto conn = host.connect({kEchoAddr, kReplayPorts[index % 4]});
    std::weak_ptr<net::TcpConnection> weak = conn;
    conn->on_connected = [weak] {
      if (auto c = weak.lock()) c->send(std::string_view("hello gq\r\n"));
    };
    conn->on_data = [weak](std::span<const std::uint8_t>) {
      if (auto c = weak.lock()) c->close();
    };
    conns.push_back(std::move(conn));
  };
  // Seed-dependent launch jitter makes the recording (and so the golden
  // comparison) differ across seeds: the replay reproduces whatever
  // timing was recorded, it does not depend on these draws.
  int wave = 0;
  for (auto at = util::seconds(60); at.usec < kRunLength.usec;
       at = at + util::seconds(10)) {
    const auto jitter =
        static_cast<std::int64_t>(rig.farm->rng().next() % 5000);
    rig.farm->loop().schedule_at(util::TimePoint{at.usec + jitter},
                                 [&launch, wave] { launch(wave); });
    ++wave;
  }
  rig.farm->run_for(kRunLength);

  RunLog log;
  log.events = recorder.joined();
  log.upstream = rig.farm->gateway().upstream_trace().contents();
  log.inmate_rx = rig.farm->gateway().inmate_rx_trace().archive().records();
  for (const auto& [verdict, count] :
       rig.farm->reporter().verdict_totals())
    log.verdicts += count;
  return log;
}

RunLog replay_run(std::uint64_t seed,
                  const std::vector<pkt::PcapRecord>& records) {
  ReplayRig rig(seed);  // Same construction, no inmates.
  trace::EventRecorder recorder(rig.farm->telemetry().bus());
  const auto scheduled = trace::schedule_replay(rig.farm->gateway(), records);
  EXPECT_EQ(scheduled, records.size());  // Nothing snaplen-truncated.
  rig.farm->run_for(kRunLength);

  RunLog log;
  log.events = recorder.joined();
  log.upstream = rig.farm->gateway().upstream_trace().contents();
  for (const auto& [verdict, count] :
       rig.farm->reporter().verdict_totals())
    log.verdicts += count;
  return log;
}

class TraceReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceReplay, GoldenArchiveReproducesRunBitIdentically) {
  const auto seed = GetParam();
  const auto recorded = record_run(seed);
  ASSERT_GT(recorded.inmate_rx.size(), 0u);
  ASSERT_GT(recorded.verdicts, 0u);
  ASSERT_FALSE(recorded.events.empty());

  // Round-trip the capture through the on-disk archive format, as a
  // real golden file would be.
  const std::string dir =
      "trace_test_golden_" + std::to_string(seed);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  // (Re)record into a standalone tap so save/load covers the replay
  // source exactly.
  trace::ArchiveConfig config;
  config.segment_bytes = 1 << 20;
  config.max_segments = 16;
  trace::TraceTap golden("inmate_rx", config, nullptr);
  for (const auto& record : recorded.inmate_rx)
    golden.record(record.time, record.frame);
  ASSERT_TRUE(golden.save(dir));
  auto loaded = trace::load_trace(dir);
  ASSERT_TRUE(loaded.has_value());
  const auto records = loaded->archive().records();
  ASSERT_EQ(records.size(), recorded.inmate_rx.size());
  std::filesystem::remove_all(dir, ec);

  const auto replayed = replay_run(seed, records);
  EXPECT_EQ(replayed.events, recorded.events)
      << "verdict event sequence diverged";
  EXPECT_EQ(replayed.upstream, recorded.upstream)
      << "upstream egress diverged";
  EXPECT_EQ(replayed.verdicts, recorded.verdicts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceReplay,
                         ::testing::Values(0x6071ull, 0xC0FFEEull));

// Distinct seeds must give distinct runs (the comparison above is not
// vacuous).
TEST(TraceReplay, DistinctSeedsDiverge) {
  const auto a = record_run(0x6071ull);
  const auto b = record_run(0xC0FFEEull);
  EXPECT_NE(a.events, b.events);
}

// --- trace_smoke: the round trip in miniature (archive → rotate →
// index → save → load → extract), registered as its own ctest target.

TEST(TraceSmoke, ArchiveRotateIndexReplayRoundTrip) {
  const std::string dir = "trace_smoke_archive";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  trace::ArchiveConfig config;
  config.segment_bytes = 2048;
  config.max_segments = 4;
  trace::TraceTap tap("smoke", config, nullptr);
  const auto a = Ipv4Addr(10, 9, 0, 5);
  const auto b = Ipv4Addr(192, 150, 187, 12);
  for (int i = 0; i < 128; ++i)
    tap.record(util::TimePoint{i * 50}, tcp_frame(a, b, 1500, 80, 48));
  ASSERT_GT(tap.archive().evicted_segments(), 0u);
  ASSERT_TRUE(tap.save(dir));

  auto loaded = trace::load_trace(dir);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->contents(), tap.contents());
  const auto* flow = loaded->index().find(
      {pkt::FlowProto::kTcp, {a, 1500}, {b, 80}}, 0);
  ASSERT_NE(flow, nullptr);
  EXPECT_EQ(flow->packets, 128u);
  const auto extracted = loaded->extract_flow(*flow);
  EXPECT_EQ(extracted.size(), loaded->archive().retained_packets());
  // Each retained record replays byte-identically.
  const auto original = tap.archive().records();
  ASSERT_EQ(extracted.size(), original.size());
  for (std::size_t i = 0; i < extracted.size(); ++i)
    EXPECT_EQ(extracted[i].frame, original[i].frame);

  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace gq

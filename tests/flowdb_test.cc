// FlowDB store + query engine coverage (src/flowdb). The FlowDbSmoke
// suite doubles as the `flowdb_smoke` ctest lane: encode/parse/open
// round trips, predicate scans checked against brute force over
// reconstructed rows, aggregation kernels, and the
// verdict-distribution diff gate. Every query runs against a store directory written through
// SegmentedStore::append_segment (make_store builds one-segment ones). FlowDbReject covers the load-time rejection contract:
// corrupt footers, truncation, and self-declared-length lies must all
// come back nullopt, never a crash or over-read.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/query.h"
#include "flowdb/store.h"
#include "obs/metrics.h"
#include "trace/flow_index.h"
#include "util/rng.h"
#include "util/strings.h"

namespace gq {
namespace {

flowdb::Row sample_row(std::uint64_t i, util::Rng& rng) {
  flowdb::Row row;
  row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
  row.src = {util::Ipv4Addr(10, 9, 0, static_cast<std::uint8_t>(i % 200)),
             static_cast<std::uint16_t>(1024 + rng.below(60000))};
  row.dst = {util::Ipv4Addr(static_cast<std::uint32_t>(rng.next())),
             static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
  row.vlan = static_cast<std::uint16_t>(100 + rng.below(8));
  const char* tenants[] = {"", "acme", "umbrella", "tyrell"};
  row.tenant = tenants[rng.below(4)];
  row.job = rng.below(32);
  if (rng.chance(0.8)) {
    row.verdict = static_cast<std::uint8_t>(1 + rng.below(6));
    row.source = static_cast<std::uint8_t>(rng.below(3));
    row.policy = rng.chance(0.5) ? "quarantine" : "default";
  }
  row.tap = rng.chance(0.5) ? "upstream" : "job-tap";
  row.packets = 1 + rng.below(100);
  row.bytes = row.packets * (60 + rng.below(1400));
  row.first_usec = static_cast<std::int64_t>(i) * 500;
  row.last_usec = row.first_usec + static_cast<std::int64_t>(rng.below(10000));
  const auto locs = rng.below(4);
  for (std::uint64_t l = 0; l < locs; ++l)
    row.locations.push_back({rng.below(8), rng.below(4096)});
  return row;
}

flowdb::Writer sample_writer(std::size_t rows, std::uint64_t seed) {
  util::Rng rng(seed);
  flowdb::Writer writer;
  for (std::size_t i = 0; i < rows; ++i) writer.add(sample_row(i, rng));
  return writer;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// A fresh, per-process store directory path (ctest runs the
/// flowdb_smoke lane alongside the individual cases).
std::string temp_dir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string(name) + "_" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir.string();
}

/// Replace `dir` with a store holding `writer`'s rows as one segment
/// (no segments when the writer is empty), written through the one
/// write path, and open it. nullopt if writing or reopening fails.
std::optional<flowdb::SegmentedReader> make_store(
    const std::string& dir, const flowdb::Writer& writer) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto store = flowdb::SegmentedStore::open(dir);
  if (!store || !store->append_segment(writer)) return std::nullopt;
  return flowdb::SegmentedReader::open(dir);
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The brute-force reference for every Filter field.
bool row_matches(const flowdb::Row& row, const flowdb::Filter& filter) {
  if (filter.verdict && row.verdict != *filter.verdict) return false;
  if (filter.source && (row.verdict == 0 || row.source != *filter.source))
    return false;
  if (filter.tenant && row.tenant != *filter.tenant) return false;
  if (filter.policy && row.policy != *filter.policy) return false;
  if (filter.tap && row.tap != *filter.tap) return false;
  if (filter.job && row.job != *filter.job) return false;
  if (filter.vlan && row.vlan != *filter.vlan) return false;
  if (filter.proto && row.proto != *filter.proto) return false;
  if (filter.endpoint && row.src.addr != *filter.endpoint &&
      row.dst.addr != *filter.endpoint)
    return false;
  if (filter.prefix && !filter.prefix->contains(row.src.addr) &&
      !filter.prefix->contains(row.dst.addr))
    return false;
  if (filter.port && row.src.port != *filter.port &&
      row.dst.port != *filter.port)
    return false;
  if (filter.since_usec && row.last_usec < *filter.since_usec) return false;
  if (filter.until_usec && row.first_usec > *filter.until_usec) return false;
  return true;
}

TEST(FlowDbSmoke, EncodeParseRoundTripPreservesEveryRow) {
  util::Rng rng(0xFDB0001);
  flowdb::Writer writer;
  std::vector<flowdb::Row> originals;
  for (std::size_t i = 0; i < 512; ++i) {
    originals.push_back(sample_row(i, rng));
    writer.add(originals.back());
  }
  auto reader = flowdb::Reader::parse(writer.encode());
  ASSERT_TRUE(reader);
  ASSERT_EQ(reader->rows(), originals.size());
  for (std::size_t i = 0; i < originals.size(); ++i)
    EXPECT_EQ(reader->row(i), originals[i]) << "row " << i;
}

TEST(FlowDbSmoke, MmapOpenMatchesInMemoryParse) {
  const auto writer = sample_writer(256, 0xFDB0002);
  const auto bytes = writer.encode();
  const auto dir = temp_dir("flowdb_test_open");
  const auto store = make_store(dir, writer);
  ASSERT_TRUE(store);
  auto mapped =
      flowdb::Reader::open(dir + "/" + store->manifest().segments[0].file);
  auto parsed = flowdb::Reader::parse(bytes);
  ASSERT_TRUE(mapped);
  ASSERT_TRUE(parsed);
  ASSERT_EQ(mapped->rows(), parsed->rows());
  EXPECT_EQ(mapped->file_bytes(), bytes.size());
  for (std::uint64_t i = 0; i < mapped->rows(); ++i)
    ASSERT_EQ(mapped->row(i), parsed->row(i)) << "row " << i;
  std::filesystem::remove_all(dir);
}

TEST(FlowDbSmoke, EncodeIsDeterministic) {
  EXPECT_EQ(sample_writer(300, 0xFDB0003).encode(),
            sample_writer(300, 0xFDB0003).encode());
}

TEST(FlowDbSmoke, ScanPredicatesMatchBruteForce) {
  const auto dir = temp_dir("flowdb_scan_predicates");
  auto reader = make_store(dir, sample_writer(20'000, 0xFDB0004));
  ASSERT_TRUE(reader);

  std::vector<flowdb::Filter> filters;
  flowdb::Filter f;
  f.verdict = static_cast<std::uint8_t>(shim::Verdict::kDrop);
  filters.push_back(f);
  f = {};
  f.verdict = 0;  // Never-annotated flows.
  filters.push_back(f);
  f = {};
  f.tenant = "acme";
  filters.push_back(f);
  f = {};
  f.tenant = "no-such-tenant";  // Absent from dictionary: matches nothing.
  filters.push_back(f);
  f = {};
  f.port = 80;
  filters.push_back(f);
  f = {};
  f.prefix = util::Ipv4Net(util::Ipv4Addr(10, 9, 0, 0), 16);
  filters.push_back(f);
  f = {};
  f.since_usec = 1'000'000;
  f.until_usec = 3'000'000;
  filters.push_back(f);
  f = {};
  f.proto = pkt::FlowProto::kUdp;
  f.vlan = 103;
  filters.push_back(f);
  f = {};
  f.tenant = "umbrella";
  f.verdict = static_cast<std::uint8_t>(shim::Verdict::kForward);
  f.source = static_cast<std::uint8_t>(shim::VerdictSource::kTable);
  filters.push_back(f);

  for (std::size_t fi = 0; fi < filters.size(); ++fi) {
    const auto matches = reader->scan(filters[fi]);
    ASSERT_TRUE(matches);
    // Brute force over reconstructed rows.
    std::vector<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < reader->rows(); ++i)
      if (row_matches(*reader->row(i), filters[fi])) expected.push_back(i);
    EXPECT_EQ(*matches, expected) << "filter " << fi;
  }
  std::filesystem::remove_all(dir);
}

TEST(FlowDbSmoke, AggregatesMatchBruteForce) {
  const auto dir = temp_dir("flowdb_aggregates");
  auto reader = make_store(dir, sample_writer(10'000, 0xFDB0006));
  ASSERT_TRUE(reader);
  std::uint64_t want_packets = 0, want_bytes = 0;
  for (std::uint64_t i = 0; i < reader->rows(); ++i) {
    want_packets += reader->row(i)->packets;
    want_bytes += reader->row(i)->bytes;
  }
  for (const auto group :
       {flowdb::GroupBy::kVerdict, flowdb::GroupBy::kTenant,
        flowdb::GroupBy::kPolicy, flowdb::GroupBy::kTap}) {
    const auto all = reader->aggregate_all(group);
    ASSERT_TRUE(all);
    const auto& aggs = *all;
    std::uint64_t flows = 0, packets = 0, bytes = 0;
    for (const auto& agg : aggs) {
      flows += agg.flows;
      packets += agg.packets;
      bytes += agg.bytes;
      EXPECT_FALSE(agg.label.empty());
    }
    EXPECT_EQ(flows, reader->rows());
    EXPECT_EQ(packets, want_packets);
    EXPECT_EQ(bytes, want_bytes);
    // Label-sorted, no duplicates.
    for (std::size_t i = 1; i < aggs.size(); ++i)
      EXPECT_LT(aggs[i - 1].label, aggs[i].label);
  }
  std::filesystem::remove_all(dir);
}

TEST(FlowDbSmoke, DiffVerdictsGatesPerturbedDistributions) {
  const auto base = sample_writer(8'000, 0xFDB0007);
  const auto dir_a = temp_dir("flowdb_diff_a");
  const auto dir_b = temp_dir("flowdb_diff_b");
  const auto dir_c = temp_dir("flowdb_diff_c");
  auto a = make_store(dir_a, base);
  auto b = make_store(dir_b, base);
  ASSERT_TRUE(a);
  ASSERT_TRUE(b);
  // Same store: identical distribution, zero delta.
  const auto same = flowdb::diff_verdicts(*a, *b);
  ASSERT_TRUE(same);
  EXPECT_TRUE(same->within(0.0));

  // Perturb: force every verdict to kDrop.
  util::Rng rng(0xFDB0007);
  flowdb::Writer perturbed;
  for (std::size_t i = 0; i < 8'000; ++i) {
    auto row = sample_row(i, rng);
    row.verdict = static_cast<std::uint8_t>(shim::Verdict::kDrop);
    row.source = static_cast<std::uint8_t>(shim::VerdictSource::kShim);
    perturbed.add(std::move(row));
  }
  auto c = make_store(dir_c, perturbed);
  ASSERT_TRUE(c);
  const auto diff = flowdb::diff_verdicts(*a, *c);
  ASSERT_TRUE(diff);
  EXPECT_FALSE(diff->within(0.02));
  EXPECT_GT(diff->max_delta, 0.1);

  // A segment that fails validation fails the diff instead of
  // answering from partial counts.
  const std::string seg_path = dir_c + "/" + c->manifest().segments[0].file;
  auto bytes = read_bytes(seg_path);
  bytes[bytes.size() / 2] ^= 0x01;
  write_bytes(seg_path, bytes);
  auto tampered = flowdb::SegmentedReader::open(dir_c);
  ASSERT_TRUE(tampered);
  EXPECT_FALSE(flowdb::diff_verdicts(*a, *tampered));
  for (const auto& dir : {dir_a, dir_b, dir_c}) std::filesystem::remove_all(dir);
}

TEST(FlowDbSmoke, TenantJobCarryFromArchiveIntoStore) {
  trace::FlowIndex index;
  for (int i = 0; i < 10; ++i) {
    trace::FlowRecord record;
    record.key.proto = pkt::FlowProto::kTcp;
    record.key.src = {util::Ipv4Addr(10, 9, 0, 1), std::uint16_t(1000 + i)};
    record.key.dst = {util::Ipv4Addr(192, 150, 187, 12), 80};
    record.tenant = i % 2 ? "acme" : "umbrella";
    record.job = 40 + i;
    record.packets = 3;
    record.bytes = 300;
    if (i % 3 == 0) {
      record.has_verdict = true;
      record.verdict = shim::Verdict::kRewrite;
      record.verdict_source = shim::VerdictSource::kTable;
      record.policy_name = "tables";
    }
    index.restore(std::move(record));
  }
  flowdb::Writer writer;
  writer.add_index(index, "job-tap");
  const auto dir = temp_dir("flowdb_tenant_job");
  auto reader = make_store(dir, writer);
  ASSERT_TRUE(reader);
  flowdb::Filter by_tenant;
  by_tenant.tenant = "acme";
  EXPECT_EQ(reader->scan(by_tenant)->size(), 5u);
  flowdb::Filter by_job;
  by_job.job = 43;
  const auto match = reader->scan(by_job);
  ASSERT_TRUE(match);
  ASSERT_EQ(match->size(), 1u);
  EXPECT_EQ(reader->row((*match)[0])->tenant, "acme");
  flowdb::Filter by_source;
  by_source.source = static_cast<std::uint8_t>(shim::VerdictSource::kTable);
  EXPECT_EQ(reader->scan(by_source)->size(), 4u);
  std::filesystem::remove_all(dir);
}

TEST(FlowDbSmoke, WriterPublishesMetrics) {
  obs::MetricsRegistry metrics;
  util::Rng rng(0xFDB0008);
  flowdb::Writer writer(&metrics);
  for (std::size_t i = 0; i < 32; ++i) writer.add(sample_row(i, rng));
  const auto dir = temp_dir("flowdb_writer_metrics");
  auto reader = make_store(dir, writer);
  ASSERT_TRUE(reader);
  EXPECT_EQ(metrics.counter("flowdb.rows_written").value(), 32u);
  EXPECT_EQ(metrics.counter("flowdb.bytes_written").value(),
            reader->manifest().total_bytes());
  flowdb::ScanOptions options;
  options.metrics = &metrics;
  ASSERT_TRUE(reader->scan({}, options));
  EXPECT_EQ(metrics.counter("flowdb.scans").value(), 1u);
  EXPECT_EQ(metrics.counter("flowdb.scan.rows_scanned").value(), 32u);
  EXPECT_EQ(metrics.counter("flowdb.scan.rows_matched").value(), 32u);
  std::filesystem::remove_all(dir);
}

// --- Rejection contract ---------------------------------------------------

TEST(FlowDbReject, CorruptFooterHashRejected) {
  auto bytes = sample_writer(64, 0xFDB0101).encode();
  // Flip one payload byte: the footer hash no longer matches.
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_FALSE(flowdb::Reader::parse(std::move(bytes)));
}

TEST(FlowDbReject, TruncationAlwaysRejected) {
  const auto bytes = sample_writer(64, 0xFDB0102).encode();
  util::Rng rng(0xFDB0102);
  for (int i = 0; i < 200; ++i) {
    const auto cut = rng.below(bytes.size());  // Strictly shorter.
    EXPECT_FALSE(flowdb::Reader::parse(
        {bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut)}))
        << "prefix " << cut;
  }
}

/// Re-seal a store's footer over its (edited) bytes, so only the
/// structural and zone checks can catch the edit.
std::vector<std::uint8_t> reseal(std::vector<std::uint8_t> bytes) {
  const std::uint64_t footer_offset = bytes.size() - 16;
  const std::uint64_t hash =
      flowdb::seal_hash({bytes.data(), footer_offset});
  std::memcpy(bytes.data() + footer_offset, &hash, 8);
  return bytes;
}

TEST(FlowDbReject, SelfDeclaredLengthLiesRejected) {
  // Corrupt individual header fields, then re-seal the footer hash so
  // only the header validation (not the integrity check) can catch it.
  const auto pristine = sample_writer(64, 0xFDB0103).encode();
  const auto poke_u64 = [&](std::size_t offset, std::uint64_t value) {
    auto bytes = pristine;
    std::memcpy(bytes.data() + offset, &value, 8);
    return reseal(std::move(bytes));
  };
  // FileHeader field offsets (see flowdb.h): row_count @16,
  // columns_offset @24, dict_offset @32, dict_count @40, blob_offset
  // @48, blob_bytes @56, loc_offset @64, loc_count @72,
  // footer_offset @80.
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(16, 1ull << 40)))
      << "row_count lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(24, pristine.size() * 2)))
      << "columns_offset lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(24, 12)))
      << "misaligned columns_offset";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(32, pristine.size() * 2)))
      << "dict_offset lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(40, 1ull << 40)))
      << "dict_count lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(56, 1ull << 40)))
      << "blob_bytes lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(72, 1ull << 40)))
      << "loc_count lie";
  EXPECT_FALSE(flowdb::Reader::parse(poke_u64(80, pristine.size())))
      << "footer_offset lie";
  // Control: resealing without corruption still parses.
  EXPECT_TRUE(flowdb::Reader::parse(reseal(pristine)));
}

TEST(FlowDbReject, BadMagicAndVersionRejected) {
  const auto pristine = sample_writer(8, 0xFDB0104).encode();
  {
    auto bytes = pristine;
    bytes[0] ^= 0xFF;
    EXPECT_FALSE(flowdb::Reader::parse(std::move(bytes)));
  }
  {
    auto bytes = pristine;
    bytes[8] = 0x7F;  // version
    EXPECT_FALSE(flowdb::Reader::parse(std::move(bytes)));
  }
  EXPECT_FALSE(flowdb::Reader::parse({}));
  EXPECT_FALSE(flowdb::Reader::open(temp_path("flowdb_no_such_store.fdb")));
}

TEST(FlowDbReject, OtherFormatVersionsRejected) {
  // Readers accept exactly kVersion; there is no v2 read path. The
  // version field is re-sealed, so the version check alone rejects.
  const auto pristine = sample_writer(8, 0xFDB0106).encode();
  ASSERT_EQ(flowdb::kVersion, 3u);
  for (const std::uint32_t version : {1u, 2u, 4u}) {
    auto bytes = pristine;
    std::memcpy(bytes.data() + 8, &version, 4);
    bytes = reseal(std::move(bytes));
    const auto path = temp_path("flowdb_old_version.fdb");
    write_bytes(path, bytes);
    EXPECT_FALSE(flowdb::Reader::open(path)) << "version " << version;
    EXPECT_FALSE(flowdb::Reader::parse(std::move(bytes)))
        << "version " << version;
    std::filesystem::remove(path);
  }
  EXPECT_TRUE(flowdb::Reader::parse(reseal(pristine)));
}

TEST(FlowDbReject, OutOfRangeTenantIdKeysAsEmptyName) {
  // Reader::dict() reads an out-of-range id as the empty string, and
  // the zone recompute must key it the same way: every row but one is
  // "acme", the odd row has the empty tenant, and pointing that row at
  // a nonexistent dictionary id leaves the zone block valid.
  util::Rng rng(0xFDB0107);
  flowdb::Writer writer;
  for (std::size_t i = 0; i < 64; ++i) {
    auto row = sample_row(i, rng);
    row.tenant = i == 17 ? "" : "acme";
    writer.add(std::move(row));
  }
  auto bytes = writer.encode();
  flowdb::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof header);
  std::uint64_t tenant_offset = 0;
  for (std::uint32_t c = 0; c < header.column_count; ++c) {
    flowdb::ColumnDesc desc;
    std::memcpy(&desc,
                bytes.data() + header.columns_offset + c * sizeof desc,
                sizeof desc);
    if (std::strcmp(desc.name, "tenant") == 0) tenant_offset = desc.offset;
  }
  ASSERT_NE(tenant_offset, 0u);
  const std::uint32_t bogus_id = 0xFFFFFFF0u;
  std::memcpy(bytes.data() + tenant_offset + 17 * 4, &bogus_id, 4);
  const auto reader = flowdb::Reader::parse(reseal(std::move(bytes)));
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->tenant()[17], bogus_id);
  EXPECT_EQ(reader->row(17).tenant, "");
}

// --- Seal hash --------------------------------------------------------------

std::vector<std::uint8_t> hash_pattern(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  return bytes;
}

TEST(FlowDbSealHash, KnownAnswerVectors) {
  // Pinned values: the footer of every sealed store depends on them,
  // so any change to the hash is a format change (bump kVersion).
  // Lengths straddle the 8-byte word and the 32-byte stripe.
  const std::pair<std::size_t, std::uint64_t> vectors[] = {
      {0, 0x0b82b2df01bc4321ull},    {7, 0xe0cde339c076b008ull},
      {8, 0xbff90c684486ed82ull},    {31, 0x9fd2393c0ac46e61ull},
      {32, 0xeebc59efadab19aaull},   {33, 0xfd787dda661b3b25ull},
      {1000, 0xbd5cd69d174b8215ull},
  };
  for (const auto& [len, want] : vectors)
    EXPECT_EQ(flowdb::seal_hash(hash_pattern(len)), want) << len << " bytes";
}

TEST(FlowDbSealHash, UnalignedInputHashesLikeAlignedCopy) {
  const auto aligned = hash_pattern(40);
  std::vector<std::uint8_t> shifted(aligned.size() + 3);
  for (std::size_t offset = 1; offset <= 3; ++offset) {
    std::copy(aligned.begin(), aligned.end(), shifted.begin() + offset);
    const std::span<const std::uint8_t> view(shifted.data() + offset,
                                             aligned.size());
    EXPECT_EQ(flowdb::seal_hash(view), 0xf2c9d9ffd9e0085aull)
        << "offset " << offset;
    EXPECT_EQ(flowdb::seal_hash(view), flowdb::seal_hash(aligned));
  }
}

TEST(FlowDbSealHash, EveryByteFlipOfASealedSegmentChangesTheHash) {
  // The footer's single-edit guarantee, checked exhaustively over a
  // small sealed segment: each step of the hash is a bijection of its
  // lane and injective in the input word, so no one-byte edit can
  // leave the hash unchanged.
  auto bytes = sample_writer(16, 0xFDB0108).encode();
  const std::span<const std::uint8_t> sealed(bytes.data(), bytes.size() - 16);
  const std::uint64_t want = flowdb::seal_hash(sealed);
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + sealed.size(), 8);
  ASSERT_EQ(stored, want);
  for (std::size_t at = 0; at < sealed.size(); ++at) {
    for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
      bytes[at] ^= mask;
      ASSERT_NE(flowdb::seal_hash(sealed), want)
          << "byte " << at << " ^ " << static_cast<int>(mask);
      bytes[at] ^= mask;
    }
  }
  ASSERT_EQ(flowdb::seal_hash(sealed), want);
}

TEST(FlowDbReject, LyingLocationsAreClampedNotOverRead) {
  // A row whose loc_start/loc_count point past the shared location
  // array must come back clamped (possibly empty), never over-read.
  flowdb::Writer writer;
  util::Rng rng(0xFDB0105);
  for (std::size_t i = 0; i < 4; ++i) writer.add(sample_row(i, rng));
  auto bytes = writer.encode();
  auto pristine = flowdb::Reader::parse(bytes);
  ASSERT_TRUE(pristine);
  for (std::uint64_t i = 0; i < pristine->rows(); ++i) {
    const auto locs = pristine->locations_of(i);
    EXPECT_LE(locs.size(), 3u);
  }
  EXPECT_TRUE(pristine->locations_of(999).empty());
}

TEST(FlowDbSmoke, EmptyStoreRoundTrips) {
  flowdb::Writer writer;
  auto segment = flowdb::Reader::parse(writer.encode());
  ASSERT_TRUE(segment);
  EXPECT_EQ(segment->rows(), 0u);
  const auto dir = temp_dir("flowdb_empty_store");
  auto reader = make_store(dir, writer);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->rows(), 0u);
  EXPECT_TRUE(reader->scan({})->empty());
  EXPECT_TRUE(reader->aggregate_all(flowdb::GroupBy::kVerdict)->empty());
  std::filesystem::remove_all(dir);
}

// --- Zone-map / bloom pruning ---------------------------------------------

/// The canned filter set every scan test shares: the same queries the
/// brute-force differential exercises, now also run prune-on vs
/// prune-off (the skip-scan correctness contract: pruning may only
/// skip work, never change results).
std::vector<flowdb::Filter> canned_filters() {
  std::vector<flowdb::Filter> filters;
  flowdb::Filter f;
  f.verdict = static_cast<std::uint8_t>(shim::Verdict::kDrop);
  filters.push_back(f);
  f = {};
  f.verdict = 0;
  filters.push_back(f);
  f = {};
  f.tenant = "acme";
  filters.push_back(f);
  f = {};
  f.tenant = "no-such-tenant";
  filters.push_back(f);
  f = {};
  f.port = 80;
  filters.push_back(f);
  f = {};
  f.prefix = util::Ipv4Net(util::Ipv4Addr(10, 9, 0, 0), 16);
  filters.push_back(f);
  f = {};
  f.since_usec = 1'000'000;
  f.until_usec = 3'000'000;
  filters.push_back(f);
  f = {};
  f.since_usec = 1'000'000'000;  // Past every row: fully prunable.
  filters.push_back(f);
  f = {};
  f.proto = pkt::FlowProto::kUdp;
  f.vlan = 103;
  filters.push_back(f);
  f = {};
  f.vlan = 9999;  // Outside every zone's vlan range.
  filters.push_back(f);
  f = {};
  f.endpoint = util::Ipv4Addr(10, 9, 0, 77);
  filters.push_back(f);
  f = {};
  f.endpoint = util::Ipv4Addr(203, 0, 113, 200);  // Absent address.
  filters.push_back(f);
  f = {};
  f.tenant = "umbrella";
  f.verdict = static_cast<std::uint8_t>(shim::Verdict::kForward);
  f.source = static_cast<std::uint8_t>(shim::VerdictSource::kTable);
  filters.push_back(f);
  return filters;
}

TEST(FlowDbPrune, PruneOnAndOffAreByteIdentical) {
  // One-segment store: the segment is kept or pruned whole, so the
  // chunk grid does the rest.
  const auto dir = temp_dir("flowdb_prune_on_off");
  auto reader = make_store(dir, sample_writer(50'000, 0xFDB0201));
  ASSERT_TRUE(reader);
  const auto filters = canned_filters();
  for (std::size_t fi = 0; fi < filters.size(); ++fi) {
    flowdb::ScanOptions off;
    off.prune = false;
    const auto full = reader->scan(filters[fi], off);
    ASSERT_TRUE(full);
    EXPECT_EQ(reader->scan(filters[fi]), full) << "filter " << fi;
  }
  std::filesystem::remove_all(dir);
}

TEST(FlowDbPrune, ScanStatsAndCountersTrackPruning) {
  const auto dir = temp_dir("flowdb_prune_stats");
  auto reader = make_store(dir, sample_writer(40'000, 0xFDB0202));
  ASSERT_TRUE(reader);
  flowdb::Filter unsatisfiable;
  unsatisfiable.since_usec = 1'000'000'000;  // Newer than every row.
  obs::MetricsRegistry metrics;
  flowdb::ScanStats stats;
  flowdb::ScanOptions options;
  options.stats = &stats;
  options.metrics = &metrics;
  EXPECT_TRUE(reader->scan(unsatisfiable, options)->empty());
  EXPECT_EQ(stats.segments_considered, 1u);
  EXPECT_EQ(stats.segments_pruned, 1u);  // Zone map kills the segment.
  EXPECT_EQ(stats.rows_scanned, 0u);
  EXPECT_EQ(metrics.counter("flowdb.scan.segments_pruned").value(), 1u);
  EXPECT_EQ(metrics.counter("flowdb.scan.rows_scanned").value(), 0u);

  // A satisfiable window prunes some chunks but keeps the segment.
  flowdb::Filter window;
  window.since_usec = 1'000'000;
  window.until_usec = 2'000'000;
  stats = {};
  const auto matches = reader->scan(window, options);
  ASSERT_TRUE(matches);
  EXPECT_FALSE(matches->empty());
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_GT(stats.chunks_pruned, 0u);
  EXPECT_GT(stats.chunks_scanned, 0u);
  EXPECT_EQ(stats.rows_matched, matches->size());
  std::filesystem::remove_all(dir);
}

TEST(FlowDbPrune, DictionaryRuledOutFilterScansTheSegmentButNoRows) {
  // With pruning off the planner keeps the segment and opens it; the
  // tenant is absent from its dictionary, so no chunk and no row is
  // visited.
  const auto dir = temp_dir("flowdb_prune_dictionary");
  auto reader = make_store(dir, sample_writer(2'000, 0xFDB0205));
  ASSERT_TRUE(reader);
  flowdb::Filter absent;
  absent.tenant = "no-such-tenant";
  flowdb::ScanStats stats;
  flowdb::ScanOptions options;
  options.prune = false;
  options.stats = &stats;
  const auto matches = reader->scan(absent, options);
  ASSERT_TRUE(matches);
  EXPECT_TRUE(matches->empty());
  EXPECT_EQ(stats.segments_considered, 1u);
  EXPECT_EQ(stats.segments_scanned, 1u);
  EXPECT_EQ(stats.segments_pruned, 0u);
  EXPECT_EQ(stats.chunks_scanned, 0u);
  EXPECT_EQ(stats.rows_scanned, 0u);
  EXPECT_EQ(stats.rows_matched, 0u);
  std::filesystem::remove_all(dir);
}

TEST(FlowDbPrune, ZoneBloomEqualsEveryRowKeyAdded) {
  // The zone recompute adds each distinct key once (per dictionary id,
  // and through a memo of recent endpoints); the bloom must still be
  // byte-identical to adding all three keys of every row. Rows mix
  // repeated and random addresses and interleave tenants, so the memo
  // both hits and evicts.
  util::Rng rng(0xFDB0204);
  const char* tenants[] = {"", "acme", "umbrella", "tyrell", "hooli"};
  flowdb::Writer writer;
  std::uint8_t want[flowdb::kBloomBytes] = {};
  for (std::size_t i = 0; i < 3 * flowdb::kScanChunk; ++i) {
    auto row = sample_row(i, rng);
    row.tenant = tenants[rng.below(std::size(tenants))];
    if (rng.chance(0.5))
      row.dst.addr = util::Ipv4Addr(10, 123, 0,
                                    static_cast<std::uint8_t>(rng.below(64)));
    flowdb::bloom_add(want, flowdb::bloom_key_tenant(row.tenant));
    flowdb::bloom_add(want, flowdb::bloom_key_endpoint(row.src.addr.value()));
    flowdb::bloom_add(want, flowdb::bloom_key_endpoint(row.dst.addr.value()));
    writer.add(std::move(row));
  }
  const auto reader = flowdb::Reader::parse(writer.encode());
  ASSERT_TRUE(reader);
  EXPECT_EQ(std::memcmp(reader->zone().bloom, want, sizeof want), 0);
}

/// Property: the planner never prunes a zone that covers a matching
/// row. Random row populations (including inverted first/last stamps)
/// against random filters; whenever brute force finds a match, both
/// zone_may_match and the end-to-end pruned scan must agree.
TEST(FlowDbPrune, ZoneNeverPrunesAMatchingRow) {
  const auto dir = temp_dir("flowdb_prune_never_drops");
  util::Rng rng(0xFDB0203);
  const char* tenants[] = {"", "acme", "umbrella", "tyrell", "hooli"};
  for (int round = 0; round < 120; ++round) {
    const std::size_t n = 1 + rng.below(400);
    flowdb::Writer writer;
    std::vector<flowdb::Row> rows;
    for (std::size_t i = 0; i < n; ++i) {
      auto row = sample_row(i, rng);
      row.tenant = tenants[rng.below(std::size(tenants))];
      row.first_usec = static_cast<std::int64_t>(rng.below(1'000'000));
      // One row in ten has last < first — a malformed stamp the zone
      // fold and planner must stay safe-side on.
      row.last_usec =
          rng.chance(0.1)
              ? row.first_usec - static_cast<std::int64_t>(rng.below(5000))
              : row.first_usec + static_cast<std::int64_t>(rng.below(50'000));
      rows.push_back(row);
      writer.add(std::move(row));
    }
    auto reader = make_store(dir, writer);
    ASSERT_TRUE(reader);

    for (int qi = 0; qi < 24; ++qi) {
      flowdb::Filter filter;
      if (rng.chance(0.4)) {
        filter.since_usec = static_cast<std::int64_t>(rng.below(1'200'000));
      }
      if (rng.chance(0.4)) {
        filter.until_usec = static_cast<std::int64_t>(rng.below(1'200'000));
      }
      if (rng.chance(0.3))
        filter.vlan = static_cast<std::uint16_t>(98 + rng.below(12));
      if (rng.chance(0.3)) filter.tenant = tenants[rng.below(5)];
      if (rng.chance(0.3)) {
        // Half the time an address actually present in some row.
        if (rng.chance(0.5) && !rows.empty()) {
          const auto& pick = rows[rng.below(rows.size())];
          filter.endpoint =
              rng.chance(0.5) ? pick.src.addr : pick.dst.addr;
        } else {
          filter.endpoint =
              util::Ipv4Addr(static_cast<std::uint32_t>(rng.next()));
        }
      }
      if (rng.chance(0.3))
        filter.port =
            static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : rng.below(65536));

      bool any = false;
      for (const auto& row : rows) any = any || row_matches(row, filter);
      if (any) {
        EXPECT_TRUE(flowdb::zone_may_match(reader->segment_zone(0), filter))
            << "round " << round << " query " << qi
            << ": zone pruned a segment holding a matching row";
      }
      // End to end: pruning must not change the result, matching or not.
      flowdb::ScanOptions off;
      off.prune = false;
      const auto pruned = reader->scan(filter);
      ASSERT_TRUE(pruned);
      EXPECT_EQ(pruned, reader->scan(filter, off))
          << "round " << round << " query " << qi;
    }
  }
  std::filesystem::remove_all(dir);
}

// --- Segmented store ------------------------------------------------------

TEST(FlowDbStore, SegmentedRoundTripMatchesMonolith) {
  const auto dir = temp_dir("flowdb_store_roundtrip");
  const auto mono_dir = temp_dir("flowdb_store_roundtrip_mono");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  // Same rows, split across three appends vs one single-segment store.
  util::Rng rng(0xFDB0301);
  flowdb::Writer monolith;
  std::vector<flowdb::Row> rows;
  for (std::size_t seg = 0; seg < 3; ++seg) {
    flowdb::Writer part;
    for (std::size_t i = 0; i < 500; ++i) {
      auto row = sample_row(seg * 500 + i, rng);
      rows.push_back(row);
      monolith.add(row);
      part.add(std::move(row));
    }
    ASSERT_TRUE(store->append_segment(part));
  }
  ASSERT_EQ(store->manifest().segments.size(), 3u);

  auto seg_reader = flowdb::SegmentedReader::open(dir);
  ASSERT_TRUE(seg_reader);
  ASSERT_EQ(seg_reader->rows(), rows.size());
  auto mono_reader = make_store(mono_dir, monolith);
  ASSERT_TRUE(mono_reader);
  ASSERT_EQ(mono_reader->segment_count(), 1u);

  // Row reconstruction across segment boundaries.
  for (const std::uint64_t i : {0ull, 499ull, 500ull, 1250ull, 1499ull}) {
    const auto row = seg_reader->row(i);
    ASSERT_TRUE(row);
    EXPECT_EQ(*row, rows[i]) << "row " << i;
  }
  EXPECT_FALSE(seg_reader->row(rows.size()));

  // Both stores return the brute-force global ids, with pruning on and
  // off.
  const auto filters = canned_filters();
  for (std::size_t fi = 0; fi < filters.size(); ++fi) {
    std::vector<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < rows.size(); ++i)
      if (row_matches(rows[i], filters[fi])) expected.push_back(i);
    flowdb::ScanOptions off;
    off.prune = false;
    for (auto* reader : {&*seg_reader, &*mono_reader}) {
      const auto full = reader->scan(filters[fi], off);
      ASSERT_TRUE(full);
      EXPECT_EQ(*full, expected) << "filter " << fi;
      const auto pruned = reader->scan(filters[fi]);
      ASSERT_TRUE(pruned);
      EXPECT_EQ(*pruned, expected) << "filter " << fi;
    }
  }

  // Aggregation merges across segments like the single segment.
  for (const auto group : {flowdb::GroupBy::kVerdict, flowdb::GroupBy::kTenant,
                           flowdb::GroupBy::kPolicy, flowdb::GroupBy::kTap}) {
    const auto seg_aggs = seg_reader->aggregate_all(group);
    const auto mono_aggs = mono_reader->aggregate_all(group);
    ASSERT_TRUE(seg_aggs && mono_aggs);
    EXPECT_EQ(*seg_aggs, *mono_aggs);
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(mono_dir);
}

TEST(FlowDbStore, ManifestSerializeParseRoundTrip) {
  flowdb::StoreManifest manifest;
  manifest.segments.push_back({"segment-000001.fdb", 10, 2048,
                               0x0123456789abcdefull, 0xfedcba9876543210ull});
  manifest.segments.push_back({"segment-000007.fdb", 0, 160,
                               0xffffffffffffffffull, 0ull});
  const auto text = manifest.serialize();
  const auto parsed = flowdb::StoreManifest::parse(text);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->segments, manifest.segments);
  EXPECT_EQ(parsed->serialize(), text);
  EXPECT_EQ(parsed->total_rows(), 10u);
  EXPECT_EQ(parsed->total_bytes(), 2208u);
}

TEST(FlowDbStore, HostileManifestsRejected) {
  using flowdb::StoreManifest;
  EXPECT_FALSE(StoreManifest::parse(""));
  EXPECT_FALSE(StoreManifest::parse("gq-flowdb-store 1\n"));  // Old formats.
  EXPECT_FALSE(StoreManifest::parse("gq-flowdb-store 2\n"));
  EXPECT_FALSE(StoreManifest::parse("gq-flowdb-store 4\n"));
  EXPECT_TRUE(StoreManifest::parse("gq-flowdb-store 3\n"));
  const char* hostile[] = {
      "segment ../../etc/passwd 1 1 0000000000000000 0000000000000000\n",
      "segment /abs/path.fdb 1 1 0000000000000000 0000000000000000\n",
      "segment .hidden.fdb 1 1 0000000000000000 0000000000000000\n",
      "segment -rf.fdb 1 1 0000000000000000 0000000000000000\n",
      "segment a.fdb x 1 0000000000000000 0000000000000000\n",
      "segment a.fdb 1 1 000000000000000 0000000000000000\n",   // Short hash.
      "segment a.fdb 1 1 000000000000000G 0000000000000000\n",  // Bad digit.
      "segment a.fdb 1 1 0000000000000000 000000000000000\n",   // Short zone.
      "segment a.fdb 1 1 0000000000000000 000000000000000G\n",  // Bad zone.
      "segment a.fdb 1 1 0000000000000000\n",   // Missing zone hash (v1 line).
      "segment a.fdb 1 1\n",                    // Missing fields.
      "segment a.fdb 1 1 0000000000000000 0000000000000000 extra\n",
      "segmen a.fdb 1 1 0000000000000000 0000000000000000\n",
      "segment a.fdb 1 1 0000000000000000 0000000000000000\n"
      "segment a.fdb 2 2 0000000000000000 0000000000000000\n",  // Duplicate.
  };
  for (const char* body : hostile) {
    EXPECT_FALSE(StoreManifest::parse(std::string("gq-flowdb-store 3\n") +
                                      body))
        << body;
  }
}

/// A segmented store's on-disk bytes: the manifest text, then every
/// listed segment file in order.
std::string store_bytes(const std::string& dir,
                        const flowdb::StoreManifest& manifest) {
  std::string all = manifest.serialize();
  for (const auto& seg : manifest.segments) {
    std::ifstream in(dir + "/" + seg.file, std::ios::binary);
    all.append(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  return all;
}

TEST(FlowDbStore, CompactionIsDeterministicAndPreservesGlobalIds) {
  const auto dir_a = temp_dir("flowdb_store_compact_a");
  const auto dir_b = temp_dir("flowdb_store_compact_b");
  const auto build = [](const std::string& dir) {
    auto store = flowdb::SegmentedStore::open(dir);
    EXPECT_TRUE(store);
    util::Rng rng(0xFDB0302);
    // Uneven segment sizes so the size-tiered pick has real choices.
    for (const std::size_t rows : {700u, 80u, 90u, 600u, 50u, 60u, 400u}) {
      flowdb::Writer part;
      for (std::size_t i = 0; i < rows; ++i) part.add(sample_row(i, rng));
      EXPECT_TRUE(store->append_segment(part));
    }
    return store;
  };
  auto store_a = build(dir_a);
  auto store_b = build(dir_b);

  EXPECT_EQ(store_bytes(dir_a, store_a->manifest()),
            store_bytes(dir_b, store_b->manifest()));

  // Snapshot pre-compaction scan results (global ids).
  auto pre_reader = flowdb::SegmentedReader::open(dir_a);
  ASSERT_TRUE(pre_reader);
  const auto pre_total = pre_reader->rows();
  std::vector<std::vector<std::uint64_t>> pre;
  for (const auto& filter : canned_filters()) {
    auto matches = pre_reader->scan(filter);
    ASSERT_TRUE(matches);
    pre.push_back(std::move(*matches));
  }

  ASSERT_TRUE(store_a->compact_segments(3));
  ASSERT_TRUE(store_b->compact_segments(3));
  EXPECT_EQ(store_a->manifest().segments.size(), 3u);
  EXPECT_EQ(store_bytes(dir_a, store_a->manifest()),
            store_bytes(dir_b, store_b->manifest()));
  // Old segment files are gone; only manifest entries remain on disk.
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_a))
    if (entry.path().extension() == ".fdb") ++files;
  EXPECT_EQ(files, 3u);

  // Adjacent-only merges preserve row order, so every global id —
  // and therefore every scan result — survives compaction unchanged.
  auto post_reader = flowdb::SegmentedReader::open(dir_a);
  ASSERT_TRUE(post_reader);
  EXPECT_EQ(post_reader->rows(), pre_total);
  const auto filters = canned_filters();
  for (std::size_t fi = 0; fi < filters.size(); ++fi) {
    const auto matches = post_reader->scan(filters[fi]);
    ASSERT_TRUE(matches);
    EXPECT_EQ(*matches, pre[fi]) << "filter " << fi;
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

/// One segment of a segment-separable store: every prunable dimension
/// is keyed off the segment index — disjoint 10 s time slabs, one vlan
/// per segment, tenant index%6, and per-segment /24s for both
/// endpoints. The endpoint pool is small (~264 distinct addresses), so
/// the 1 KiB bloom stays far from saturation and address pruning is
/// exact in practice.
flowdb::Writer separable_segment(std::size_t index, std::size_t rows) {
  constexpr std::int64_t kSlabUsec = 10'000'000;
  util::Rng rng(0x5EC5 + index * 7919);
  flowdb::Writer writer;
  for (std::size_t i = 0; i < rows; ++i) {
    flowdb::Row row;
    row.proto = rng.chance(0.7) ? pkt::FlowProto::kTcp : pkt::FlowProto::kUdp;
    row.src = {util::Ipv4Addr(10, 9, static_cast<std::uint8_t>(index),
                              static_cast<std::uint8_t>(rng.below(200) + 1)),
               static_cast<std::uint16_t>(rng.range(1024, 65000))};
    row.dst = {util::Ipv4Addr(10, static_cast<std::uint8_t>(100 + index), 0,
                              static_cast<std::uint8_t>(rng.below(64) + 1)),
               static_cast<std::uint16_t>(rng.chance(0.5) ? 80 : 25)};
    row.vlan = static_cast<std::uint16_t>(100 + index);
    row.tenant = util::format("t%zu", index % 6);
    row.job = index * 100 + rng.below(8) + 1;
    const double roll = rng.uniform();
    row.verdict = static_cast<std::uint8_t>(
        roll < 0.25   ? shim::Verdict::kDrop
        : roll < 0.55 ? shim::Verdict::kForward
                      : shim::Verdict::kRedirect);
    row.source = static_cast<std::uint8_t>(
        rng.chance(0.5) ? shim::VerdictSource::kCached
                        : shim::VerdictSource::kShim);
    row.policy = "default";
    row.tap = "synth";
    row.packets = rng.below(50) + 1;
    row.bytes = row.packets * (rng.below(1000) + 60);
    row.first_usec = static_cast<std::int64_t>(index) * kSlabUsec +
                     static_cast<std::int64_t>(i) * 2000;
    row.last_usec = row.first_usec + static_cast<std::int64_t>(rng.below(1500));
    writer.add(std::move(row));
  }
  return writer;
}

TEST(FlowDbPrune, SegmentSeparableStorePrunesPinnedCounts) {
  // A 12 x 4096-row store whose segments the zone maps and blooms can
  // tell apart: each selective query must prune exactly its pinned
  // segment count, match its prune-off twin, and survive compaction of
  // equal-sized segments (the "ties: earliest" pick) byte-identically.
  constexpr std::size_t kSegments = 12;
  constexpr std::size_t kRowsPerSegment = 4096;
  constexpr std::int64_t kSlabUsec = 10'000'000;
  const auto build = [](const std::string& dir) {
    auto store = flowdb::SegmentedStore::open(dir);
    EXPECT_TRUE(store);
    for (std::size_t s = 0; s < kSegments; ++s)
      EXPECT_TRUE(store->append_segment(separable_segment(s, kRowsPerSegment)));
    return store;
  };
  const auto dir_a = temp_dir("flowdb_prune_separable_a");
  const auto dir_b = temp_dir("flowdb_prune_separable_b");
  auto store_a = build(dir_a);
  auto store_b = build(dir_b);
  ASSERT_TRUE(store_a && store_b);
  EXPECT_EQ(store_bytes(dir_a, store_a->manifest()),
            store_bytes(dir_b, store_b->manifest()));

  struct Pinned {
    const char* name;
    flowdb::Filter filter;
    std::uint64_t segments_pruned;
  };
  std::vector<Pinned> queries(4);
  queries[0].name = "time-window(seg5)";
  queries[0].filter.since_usec = 5 * kSlabUsec + 1'000'000;
  queries[0].filter.until_usec = 5 * kSlabUsec + 3'000'000;
  queries[0].segments_pruned = 11;
  queries[1].name = "tenant(t3)";
  queries[1].filter.tenant = "t3";
  queries[1].segments_pruned = 10;  // t3 = segments 3 and 9.
  queries[2].name = "addr(10.107.0.5)";
  queries[2].filter.endpoint = util::Ipv4Addr(10, 107, 0, 5);  // Seg 7 dst.
  queries[2].segments_pruned = 11;
  queries[3].name = "vlan(104)";
  queries[3].filter.vlan = 104;
  queries[3].segments_pruned = 11;

  std::vector<std::vector<std::uint64_t>> before;
  {
    auto reader = flowdb::SegmentedReader::open(dir_a);
    ASSERT_TRUE(reader);
    for (const auto& q : queries) {
      flowdb::ScanStats stats;
      flowdb::ScanOptions on;
      on.stats = &stats;
      const auto pruned = reader->scan(q.filter, on);
      flowdb::ScanOptions off;
      off.prune = false;
      const auto full = reader->scan(q.filter, off);
      ASSERT_TRUE(pruned && full) << q.name;
      EXPECT_EQ(*pruned, *full) << q.name;
      EXPECT_FALSE(pruned->empty()) << q.name;
      EXPECT_EQ(stats.segments_pruned, q.segments_pruned) << q.name;
      before.push_back(*pruned);
    }
  }

  // Deterministic compaction: both stores compact to identical bytes,
  // and order-preserving merges keep every global row id.
  ASSERT_TRUE(store_a->compact_segments(4));
  ASSERT_TRUE(store_b->compact_segments(4));
  EXPECT_EQ(store_a->manifest().segments.size(), 4u);
  EXPECT_EQ(store_bytes(dir_a, store_a->manifest()),
            store_bytes(dir_b, store_b->manifest()));
  auto compacted = flowdb::SegmentedReader::open(dir_a);
  ASSERT_TRUE(compacted);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto matches = compacted->scan(queries[qi].filter);
    ASSERT_TRUE(matches) << queries[qi].name;
    EXPECT_EQ(*matches, before[qi]) << queries[qi].name;
  }
  std::filesystem::remove_all(dir_a);
  std::filesystem::remove_all(dir_b);
}

TEST(FlowDbStore, TamperedSegmentsNeverScanWrong) {
  const auto dir = temp_dir("flowdb_store_tamper");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  ASSERT_TRUE(store->append_segment(sample_writer(128, 0xFDB0303)));
  const std::string seg_path =
      dir + "/" + store->manifest().segments[0].file;
  ASSERT_TRUE(flowdb::SegmentedReader::open(dir));
  const auto sealed = read_bytes(seg_path);
  ASSERT_GT(sealed.size(), 2001u);

  // Mid-file flip without resealing: the tail read at open still
  // matches the manifest, but mapping the segment fails the footer
  // recompute — the scan comes back nullopt, never a wrong answer.
  {
    auto tampered = sealed;
    tampered[2000] ^= 0x01;
    write_bytes(seg_path, tampered);
    auto reader = flowdb::SegmentedReader::open(dir);
    ASSERT_TRUE(reader);
    EXPECT_FALSE(reader->scan({}));
    EXPECT_FALSE(reader->row(0));
  }

  // In-place (NON-resealed) zone lie: rewrite zone bytes while leaving
  // the sealed footer untouched, so the tail read's footer check still
  // matches the manifest. If such a lie narrowed the bounds or cleared
  // bloom bits, the planner would prune the segment and the Reader's
  // recompute-verify would never run — the manifest's zone-hash pin
  // must catch it at open instead. Sweep the whole ZoneMap: the
  // min/max bound fields and every bloom byte.
  {
    flowdb::FileHeader header;
    std::memcpy(&header, sealed.data(), sizeof header);
    std::vector<std::size_t> offsets;
    for (std::size_t at = 8; at < sizeof(flowdb::ZoneMap); at += 7)
      offsets.push_back(at);  // Skip row_count; stride covers the bloom.
    for (const std::size_t at : offsets) {
      auto tampered = sealed;
      // Zeroing narrows time/vlan/port maxima and clears bloom bits —
      // exactly the "prune what actually matches" direction; flip if
      // the byte is already zero so the file always really changes.
      std::uint8_t& b = tampered[header.zone_offset + at];
      b = b == 0 ? 0xFF : 0;
      write_bytes(seg_path, tampered);
      EXPECT_FALSE(flowdb::SegmentedReader::open(dir))
          << "unresealed zone edit at +" << at << " was not detected";
    }
    // Same attack on a ChunkZone time bound (chunk pruning metadata).
    auto tampered = sealed;
    std::uint8_t& b =
        tampered[header.zone_offset + sizeof(flowdb::ZoneMap)];
    b = b == 0 ? 0xFF : 0;
    write_bytes(seg_path, tampered);
    EXPECT_FALSE(flowdb::SegmentedReader::open(dir));
  }

  // Footer-resealed zone lie: rewrite a zone byte AND recompute the
  // footer hash so the file is internally consistent. The manifest
  // pinned the original hash at append time, so the store refuses to
  // open — the planner can never trust the lying zone map.
  {
    auto tampered = sealed;
    flowdb::FileHeader header;
    std::memcpy(&header, tampered.data(), sizeof header);
    tampered[header.zone_offset + 64] ^= 0xFF;  // A bloom byte.
    const std::uint64_t resealed = flowdb::seal_hash(
        {tampered.data(), static_cast<std::size_t>(header.footer_offset)});
    std::memcpy(tampered.data() + header.footer_offset, &resealed, 8);
    write_bytes(seg_path, tampered);
    EXPECT_FALSE(flowdb::SegmentedReader::open(dir));
  }

  // Restoring the sealed bytes restores the store.
  write_bytes(seg_path, sealed);
  EXPECT_TRUE(flowdb::SegmentedReader::open(dir));
  std::filesystem::remove_all(dir);
}

TEST(FlowDbStore, ManifestReadFailureNeverClobbersStore) {
  const auto dir = temp_dir("flowdb_store_manifest_err");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  ASSERT_TRUE(store->append_segment(sample_writer(64, 0xFDB0306)));
  const std::string manifest_path =
      dir + "/" + std::string(flowdb::kManifestName);
  const auto good = read_bytes(manifest_path);
  ASSERT_FALSE(good.empty());
  // Manifest rewrites are temp+rename: no .tmp stragglers afterwards.
  EXPECT_FALSE(std::filesystem::exists(manifest_path + ".tmp"));

  // A manifest that exists but cannot be read (here: it is a
  // directory, so reads fail with EISDIR) must fail the open — NOT be
  // treated as "no store yet" and overwritten with an empty manifest,
  // which would orphan every sealed segment.
  std::filesystem::remove(manifest_path);
  ASSERT_TRUE(std::filesystem::create_directory(manifest_path));
  EXPECT_FALSE(flowdb::SegmentedStore::open(dir));
  EXPECT_TRUE(std::filesystem::is_directory(manifest_path));
  std::filesystem::remove(manifest_path);

  // A corrupt (e.g. torn) manifest fails the open and is left intact
  // for the operator rather than silently replaced.
  const std::vector<std::uint8_t> torn(good.begin(),
                                       good.begin() + good.size() / 2);
  write_bytes(manifest_path, torn);
  EXPECT_FALSE(flowdb::SegmentedStore::open(dir));
  EXPECT_EQ(read_bytes(manifest_path), torn);

  // Restoring the manifest restores the store and its segment.
  write_bytes(manifest_path, good);
  auto reopened = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(reopened);
  EXPECT_EQ(reopened->manifest().segments.size(), 1u);
  auto reader = flowdb::SegmentedReader::open(dir);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->rows(), 64u);
  std::filesystem::remove_all(dir);
}

/// Every regular file in `dir`, by name, with its bytes.
std::map<std::string, std::vector<std::uint8_t>> dir_snapshot(
    const std::string& dir) {
  std::map<std::string, std::vector<std::uint8_t>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files[entry.path().filename().string()] =
        read_bytes(entry.path().string());
  return files;
}

TEST(FlowDbStore, OldFormatVersionsFailClosed) {
  const auto dir = temp_dir("flowdb_store_old_version");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  ASSERT_TRUE(store->append_segment(sample_writer(64, 0xFDB0307)));
  const std::string manifest_path =
      dir + "/" + std::string(flowdb::kManifestName);
  const std::string good = store->manifest().serialize();
  ASSERT_EQ(good.rfind("gq-flowdb-store 3\n", 0), 0u);

  // A v2 manifest (same records under the old header line) fails both
  // opens, and neither open rewrites, adds or removes a file.
  {
    std::string v2 = good;
    v2.replace(0, std::strlen("gq-flowdb-store 3"), "gq-flowdb-store 2");
    write_bytes(manifest_path, {v2.begin(), v2.end()});
    const auto before = dir_snapshot(dir);
    EXPECT_FALSE(flowdb::SegmentedReader::open(dir));
    EXPECT_FALSE(flowdb::SegmentedStore::open(dir));
    EXPECT_EQ(dir_snapshot(dir), before);
  }

  // A v2 segment under a v3 manifest that pins its (re-sealed) bytes:
  // the tail read rejects the version before the planner sees a zone.
  {
    const std::string seg_path =
        dir + "/" + store->manifest().segments[0].file;
    auto seg = read_bytes(seg_path);
    const std::uint32_t v2 = 2;
    std::memcpy(seg.data() + 8, &v2, 4);
    seg = reseal(std::move(seg));
    flowdb::StoreManifest manifest = store->manifest();
    std::memcpy(&manifest.segments[0].footer_hash,
                seg.data() + seg.size() - 16, 8);
    const std::string text = manifest.serialize();
    write_bytes(manifest_path, {text.begin(), text.end()});
    write_bytes(seg_path, seg);
    EXPECT_FALSE(flowdb::SegmentedReader::open(dir));
    EXPECT_FALSE(flowdb::Reader::open(seg_path));
  }
  std::filesystem::remove_all(dir);
}

TEST(FlowDbStore, ScanStatsSplitOutSegmentOpenTime) {
  const auto dir = temp_dir("flowdb_store_open_ms");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  ASSERT_TRUE(store->append_segment(sample_writer(2000, 0xFDB0308)));
  ASSERT_TRUE(store->append_segment(sample_writer(2000, 0xFDB0309)));
  auto reader = flowdb::SegmentedReader::open(dir);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->open_ms(), 0.0);  // Segments open lazily.

  obs::MetricsRegistry metrics;
  flowdb::ScanStats stats;
  flowdb::ScanOptions options;
  options.stats = &stats;
  options.metrics = &metrics;
  ASSERT_TRUE(reader->scan({}, options));
  EXPECT_EQ(stats.segments_scanned, 2u);
  EXPECT_GT(stats.open_ms, 0.0);
  EXPECT_LE(stats.open_ms, stats.wall_ms);
  EXPECT_EQ(reader->open_ms(), stats.open_ms);
  EXPECT_EQ(metrics.counter("flowdb.scan.open_us").value(),
            static_cast<std::uint64_t>(stats.open_ms * 1000.0));

  // Both segments are open now: a second scan and an aggregate pay no
  // open time.
  const auto ids = reader->scan({}, options);
  ASSERT_TRUE(ids);
  EXPECT_EQ(stats.open_ms, 0.0);
  const double opened = reader->open_ms();
  ASSERT_TRUE(reader->aggregate(*ids, flowdb::GroupBy::kVerdict));
  EXPECT_EQ(reader->open_ms(), opened);

  // A fresh reader's aggregate opens (and times) its segments itself.
  auto fresh = flowdb::SegmentedReader::open(dir);
  ASSERT_TRUE(fresh);
  ASSERT_TRUE(fresh->aggregate(*ids, flowdb::GroupBy::kVerdict));
  EXPECT_GT(fresh->open_ms(), 0.0);
  std::filesystem::remove_all(dir);
}

TEST(FlowDbStore, EmptyAppendIsNoOpAndEmptyStoreScans) {
  const auto dir = temp_dir("flowdb_store_empty");
  auto store = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(store);
  flowdb::Writer empty;
  EXPECT_TRUE(store->append_segment(empty));  // Zero rows: no segment.
  EXPECT_TRUE(store->manifest().segments.empty());
  auto reader = flowdb::SegmentedReader::open(dir);
  ASSERT_TRUE(reader);
  EXPECT_EQ(reader->rows(), 0u);
  const auto matches = reader->scan({});
  ASSERT_TRUE(matches);
  EXPECT_TRUE(matches->empty());
  // Reopening an existing store continues the sequence numbering.
  ASSERT_TRUE(store->append_segment(sample_writer(16, 0xFDB0304)));
  auto reopened = flowdb::SegmentedStore::open(dir);
  ASSERT_TRUE(reopened);
  ASSERT_TRUE(reopened->append_segment(sample_writer(16, 0xFDB0305)));
  ASSERT_EQ(reopened->manifest().segments.size(), 2u);
  EXPECT_NE(reopened->manifest().segments[0].file,
            reopened->manifest().segments[1].file);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gq

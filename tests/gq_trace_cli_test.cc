// gq_trace CLI coverage: runs the built example_gq_trace binary (path
// from the GQ_TRACE_BIN compile definition) against a small rotated
// TraceTap archive saved in-process. Every subcommand must exit 0 on
// valid artifacts, 1 on artifacts it cannot read (or a `diff` past its
// tolerance), and 2 on a usage error. Library behaviour behind each
// command is asserted in flowdb_test and trace_test; this suite checks
// the operator-facing surface.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "flowdb/flowdb.h"
#include "flowdb/store.h"
#include "packet/frame.h"
#include "packet/pcap.h"
#include "trace/tap.h"

namespace gq {
namespace {

using util::Ipv4Addr;

struct CliRun {
  int status = -1;  ///< Exit code; -1 if the process did not exit.
  std::string output;  ///< stdout and stderr, interleaved.
};

std::string shell_quote(const std::string& arg) {
  std::string quoted = "'";
  for (const char c : arg) {
    if (c == '\'')
      quoted += "'\\''";
    else
      quoted += c;
  }
  return quoted + "'";
}

CliRun run_cli(const std::vector<std::string>& args) {
  std::string command = shell_quote(GQ_TRACE_BIN);
  for (const auto& arg : args) command += " " + shell_quote(arg);
  command += " 2>&1";
  CliRun run;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (!pipe) return run;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
    run.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) run.status = WEXITSTATUS(status);
  return run;
}

/// Substring check that prints the whole output on failure.
::testing::AssertionResult contains(const std::string& output,
                                    const std::string& needle) {
  if (output.find(needle) != std::string::npos)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "no \"" << needle << "\" in:\n" << output;
}

std::vector<std::uint8_t> tcp_frame(Ipv4Addr src, Ipv4Addr dst,
                                    std::uint16_t sport, std::uint16_t dport,
                                    const char* payload) {
  pkt::DecodedFrame frame;
  frame.eth.ethertype = pkt::kEtherTypeIpv4;
  frame.ip = pkt::Ipv4Packet{};
  frame.ip->src = src;
  frame.ip->dst = dst;
  frame.tcp = pkt::TcpSegment{};
  frame.tcp->src_port = sport;
  frame.tcp->dst_port = dport;
  frame.tcp->payload.assign(payload, payload + std::strlen(payload));
  return frame.encode();
}

/// Each case gets its own directory (ctest runs cases in parallel, and
/// sanitizer builds may share the temp dir) holding a saved archive of
/// two annotated flows, captured with a budget small enough to rotate.
class GqTraceCli : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (std::filesystem::temp_directory_path() /
            ("gq_trace_cli_" + std::string(info->name()) + "_" +
             std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    archive_ = path("archive");

    trace::ArchiveConfig config;
    config.segment_bytes = 2048;
    config.max_segments = 4;
    trace::TraceTap tap("cli", config, nullptr);
    tap.set_context("cli-tenant", 7);
    const auto inmate = Ipv4Addr(10, 9, 0, 23);
    const auto web = Ipv4Addr(192, 150, 187, 12);
    const auto sink = Ipv4Addr(10, 3, 0, 99);
    for (int i = 0; i < 64; ++i) {
      tap.record(util::TimePoint{i * 1000 + 1},
                 tcp_frame(inmate, web, 1234, 80,
                           "GET /bot.exe HTTP/1.1\r\n\r\n"));
      tap.record(util::TimePoint{i * 1000 + 2},
                 tcp_frame(web, inmate, 80, 1234, "HTTP/1.1 200 OK\r\n"));
      if (i % 4 == 0)
        tap.record(util::TimePoint{i * 1000 + 3},
                   tcp_frame(inmate, sink, 2345, 25, "HELO spam\r\n"));
    }
    tap.annotate({pkt::FlowProto::kTcp, {inmate, 1234}, {web, 80}}, 0,
                 shim::Verdict::kRewrite, "botdl");
    tap.annotate({pkt::FlowProto::kTcp, {inmate, 2345}, {sink, 25}}, 0,
                 shim::Verdict::kRedirect, "spam",
                 shim::VerdictSource::kCached);
    ASSERT_GT(tap.archive().evicted_segments(), 0u);
    ASSERT_TRUE(tap.save(archive_));
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const char* name) const {
    return dir_ + "/" + name;
  }

  /// Runs `args`, expects exit 0 and `expect` in the output, and
  /// returns the output.
  std::string ok(const std::vector<std::string>& args,
                 const std::string& expect = "") {
    const auto run = run_cli(args);
    EXPECT_EQ(run.status, 0) << args[0] << ":\n" << run.output;
    EXPECT_TRUE(contains(run.output, expect)) << args[0];
    return run.output;
  }

  std::string dir_;
  std::string archive_;
};

TEST_F(GqTraceCli, ArchiveCommandsReadTheSavedCapture) {
  const auto list = ok({"list", archive_});
  EXPECT_TRUE(contains(list, "archive 'cli'"));
  EXPECT_TRUE(contains(list, "tenant cli-tenant job 7"));

  const auto summary = ok({"summary", archive_});
  EXPECT_TRUE(contains(summary, "archive 'cli': 2 flows"));
  EXPECT_TRUE(contains(summary, "REWRITE [shim] (policy botdl)"));
  EXPECT_TRUE(contains(summary, "REDIRECT [cached] (policy spam)"));
  EXPECT_TRUE(contains(summary, "tenant=cli-tenant job=7"));

  ok({"extract", archive_, "0"}, "packets rotated out of the archive");

  const auto pcap = path("flow0.pcap");
  ok({"extract", archive_, "0", pcap}, "packets of flow #0 to " + pcap);
  std::ifstream in(pcap, std::ios::binary);
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  EXPECT_FALSE(pkt::parse_pcap(bytes).empty());
}

TEST_F(GqTraceCli, StoreCommandsQueryTheCompactedArchive) {
  const auto store = path("store");
  ok({"appendseg", store, archive_}, "appended 1 archives, 2 flows");

  ok({"query", store}, "2 of 2 flows matched");
  ok({"query", store, "--verdict", "rewrite"}, "1 of 2 flows matched");
  ok({"query", store, "--source", "cached", "--no-prune"},
     "1 of 2 flows matched");
  ok({"query", store, "--limit", "1"}, "(1 more matches)");
  ok({"query", store, "--tenant", "cli-tenant", "--port", "25"},
     "1 of 2 flows matched");

  const auto stat = ok({"stat", store, "--by", "tenant"});
  EXPECT_TRUE(contains(stat, ": 2 flows"));
  EXPECT_TRUE(contains(stat, "cli-tenant"));

  ok({"diff", store, store, "--tolerance", "0"}, "-> PASS");
}

TEST_F(GqTraceCli, SegmentedStoreCommandsAppendQueryAndCompact) {
  const auto segstore = path("segstore");
  ok({"appendseg", segstore, archive_}, "appended 1 archives, 2 flows");
  ok({"appendseg", segstore, archive_}, "(2 segments)");

  ok({"segments", segstore}, ": 2 segments, 4 rows");
  const auto query =
      ok({"query", segstore, "--verdict", "rewrite"}, "2 of 4 flows matched");
  EXPECT_TRUE(contains(query, "scan: segments 2 considered"));
  ok({"stat", segstore}, ": 4 flows");

  ok({"compactseg", segstore, "1"}, "compacted 2 -> 1 segments (4 rows");
  ok({"segments", segstore}, ": 1 segments, 4 rows");
  ok({"query", segstore, "--verdict", "rewrite"}, "2 of 4 flows matched");
}

TEST_F(GqTraceCli, DiffExitsOnePastTheTolerance) {
  const auto store = path("store");
  ok({"appendseg", store, archive_});
  // Same rows as the archive's two flows, both verdicts forced to DROP.
  auto reader = flowdb::SegmentedReader::open(store);
  ASSERT_TRUE(reader);
  flowdb::Writer perturbed;
  for (std::uint64_t i = 0; i < reader->rows(); ++i) {
    auto row = reader->row(i);
    ASSERT_TRUE(row);
    row->verdict = static_cast<std::uint8_t>(shim::Verdict::kDrop);
    perturbed.add(std::move(*row));
  }
  const auto perturbed_dir = path("perturbed");
  auto perturbed_store = flowdb::SegmentedStore::open(perturbed_dir);
  ASSERT_TRUE(perturbed_store);
  ASSERT_TRUE(perturbed_store->append_segment(perturbed));

  const auto run = run_cli({"diff", store, perturbed_dir});
  EXPECT_EQ(run.status, 1) << run.output;
  EXPECT_TRUE(contains(run.output, "-> FAIL"));
  // The full tolerance admits any distribution shift.
  ok({"diff", store, perturbed_dir, "--tolerance", "1"}, "-> PASS");
}

TEST_F(GqTraceCli, UnreadableArtifactsExitOne) {
  const auto store = path("store");
  ok({"appendseg", store, archive_});
  // A store dir whose manifest is junk, one whose only segment has a
  // flipped byte (it opens, but fails validation once mapped), and a
  // dir that does not exist.
  const auto corrupt = path("corrupt");
  std::filesystem::create_directories(corrupt);
  std::ofstream(corrupt + "/" + flowdb::kManifestName)
      << "not a flowdb store\n";
  const auto tampered = path("tampered");
  ok({"appendseg", tampered, archive_});
  const auto segment = tampered + "/" +
                       flowdb::SegmentedReader::open(tampered)
                           ->manifest()
                           .segments[0]
                           .file;
  {
    std::fstream io(segment, std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(200);
    const char byte = static_cast<char>(io.get() ^ 0x01);
    io.seekp(200);
    io.put(byte);
  }
  const auto missing = path("missing");
  const auto no_archive = path("no-archive");

  const std::vector<std::vector<std::string>> cases = {
      {"list", no_archive},
      {"summary", no_archive},
      {"extract", no_archive, "0"},
      {"extract", archive_, "99"},
      {"appendseg", path("out"), archive_, no_archive},
      {"appendseg", path("seg"), no_archive},
      {"query", corrupt},
      {"query", missing},
      {"query", tampered},
      {"stat", corrupt},
      {"stat", tampered},
      {"diff", corrupt, store},
      {"diff", store, missing},
      {"diff", store, tampered},
      {"segments", path("no-store")},
      {"compactseg", corrupt},
  };
  for (const auto& args : cases) {
    const auto run = run_cli(args);
    EXPECT_EQ(run.status, 1) << args[0] << " " << args[1] << ":\n"
                             << run.output;
  }
}

TEST_F(GqTraceCli, UsageErrorsExitTwo) {
  const auto store = path("store");
  ok({"appendseg", store, archive_});

  const std::vector<std::vector<std::string>> cases = {
      {},
      {"bogus"},
      {"compact", path("out.fdb"), archive_},
      {"list"},
      {"extract", archive_, "first"},
      {"query", store, "--bogus", "1"},
      {"query", store, "--vlan"},
      {"query", store, "--vlan", "70000"},
      {"query", store, "--threads", "0"},
      {"query", store, "--verdict", "maybe"},
      {"stat", store, "--by", "colour"},
      {"compactseg", path("seg"), "0"},
      {"diff", store, store, "--tolerance", "nan"},
      {"diff", store, store, "--tolerance", ""},
      {"diff", store, store, "--tolerance", "1.5"},
      {"selftest"},
      {"selftest", path("selftest")},
      {"diffgate", path("diffgate")},
      {"prunegate", path("prunegate")},
  };
  for (const auto& args : cases) {
    std::string shown;
    for (const auto& arg : args) shown += " '" + arg + "'";
    const auto run = run_cli(args);
    EXPECT_EQ(run.status, 2) << "gq_trace" << shown << ":\n" << run.output;
    EXPECT_TRUE(contains(run.output, "usage: gq_trace")) << shown;
  }
}

}  // namespace
}  // namespace gq

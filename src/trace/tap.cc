#include "trace/tap.h"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "packet/frame_view.h"
#include "util/strings.h"

namespace gq::trace {

namespace {

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    bytes.insert(bytes.end(), chunk, chunk + n);
  std::fclose(f);
  return bytes;
}

std::string segment_filename(std::uint64_t seq) {
  return util::format("segment-%08llu.pcap",
                      static_cast<unsigned long long>(seq));
}

}  // namespace

TraceTap::TraceTap(std::string name, ArchiveConfig config,
                   obs::Telemetry* telemetry)
    : name_(std::move(name)), archive_(config) {
  if (telemetry) {
    auto& metrics = telemetry->metrics();
    const std::string prefix = "trace." + name_ + ".";
    segments_gauge_ = &metrics.gauge(prefix + "segments");
    bytes_gauge_ = &metrics.gauge(prefix + "bytes");
    evicted_ctr_ = &metrics.counter(prefix + "evicted");
    packets_ctr_ = &metrics.counter(prefix + "packets");
  }
}

void TraceTap::refresh_metrics() {
  if (!segments_gauge_) return;
  segments_gauge_->set(static_cast<std::int64_t>(archive_.segment_count()));
  bytes_gauge_->set(static_cast<std::int64_t>(archive_.retained_bytes()));
  packets_ctr_->inc();
  const std::uint64_t evicted = archive_.evicted_segments();
  if (evicted > reported_evicted_) {
    evicted_ctr_->inc(evicted - reported_evicted_);
    reported_evicted_ = evicted;
  }
}

void TraceTap::record(util::TimePoint at,
                      std::span<const std::uint8_t> frame,
                      std::uint16_t vlan_hint) {
  const Location loc = archive_.record(at, frame);
  // Index by flow key when the frame parses as TCP/UDP. FrameView wants
  // mutable bytes (it doubles as the rewrite engine), so parse a scratch
  // copy; at capture granularity the copy is noise next to the archive
  // append itself.
  scratch_.assign(frame.begin(), frame.end());
  if (const auto view = pkt::FrameView::parse(scratch_)) {
    FlowRecord& record =
        index_.touch(view->flow_key(), view->vlan().value_or(vlan_hint), at,
                     frame.size(), loc);
    // Stamp tenant/job attribution; a record that already carries an
    // identity (restored, or captured under an earlier context) keeps it.
    if (record.tenant.empty()) record.tenant = tenant_;
    if (record.job == 0) record.job = job_;
  }
  refresh_metrics();
}

bool TraceTap::annotate(const pkt::FlowKey& key, std::uint16_t vlan,
                        shim::Verdict verdict,
                        const std::string& policy_name,
                        shim::VerdictSource source) {
  return index_.annotate(key, vlan, verdict, policy_name, source);
}

std::vector<pkt::PcapRecord> TraceTap::extract_flow(
    const FlowRecord& flow) const {
  std::vector<pkt::PcapRecord> records;
  records.reserve(flow.locations.size());
  for (const auto& loc : flow.locations) {
    if (auto record = archive_.record_at(loc))
      records.push_back(std::move(*record));
  }
  return records;
}

bool TraceTap::save(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  std::ostringstream manifest;
  manifest << "gq-trace 1\n";
  manifest << "name " << name_ << '\n';
  // Tenant/job attribution (absent for unattributed taps; readers that
  // predate it skip unknown keys).
  if (!tenant_.empty()) manifest << "tenant " << tenant_ << '\n';
  if (job_ != 0) manifest << "job " << job_ << '\n';
  manifest << "segment_bytes " << archive_.config().segment_bytes << '\n';
  manifest << "max_segments " << archive_.config().max_segments << '\n';
  manifest << "total_packets " << archive_.total_packets() << '\n';
  manifest << "evicted_segments " << archive_.evicted_segments() << '\n';
  manifest << "evicted_packets " << archive_.evicted_packets() << '\n';
  manifest << "evicted_bytes " << archive_.evicted_bytes() << '\n';
  for (const auto& segment : archive_.segments()) {
    manifest << "segment " << segment.seq << ' '
             << segment_filename(segment.seq) << '\n';
    if (!segment.pcap.save(dir + "/" + segment_filename(segment.seq)))
      return false;
  }
  if (!write_file(dir + "/manifest.txt", manifest.str())) return false;

  std::ostringstream flows;
  for (const auto& flow : index_.flows())
    flows << flow_record_line(flow) << '\n';
  return write_file(dir + "/flows.txt", flows.str());
}

std::optional<TraceTap> load_trace(const std::string& dir) {
  const auto manifest_bytes = read_file(dir + "/manifest.txt");
  if (!manifest_bytes) return std::nullopt;
  std::istringstream manifest(
      std::string(manifest_bytes->begin(), manifest_bytes->end()));
  std::string magic;
  int version = 0;
  manifest >> magic >> version;
  if (magic != "gq-trace" || version != 1) return std::nullopt;

  std::string name = "loaded";
  std::string tenant;
  std::uint64_t job = 0;
  ArchiveConfig config;
  std::uint64_t total_packets = 0, evicted_segments = 0;
  std::uint64_t evicted_packets = 0, evicted_bytes = 0;
  struct SegmentEntry {
    std::uint64_t seq;
    std::string file;
  };
  std::vector<SegmentEntry> segment_entries;
  std::string key;
  while (manifest >> key) {
    if (key == "name") {
      manifest >> name;
    } else if (key == "tenant") {
      manifest >> tenant;
    } else if (key == "job") {
      manifest >> job;
    } else if (key == "segment_bytes") {
      manifest >> config.segment_bytes;
    } else if (key == "max_segments") {
      manifest >> config.max_segments;
    } else if (key == "total_packets") {
      manifest >> total_packets;
    } else if (key == "evicted_segments") {
      manifest >> evicted_segments;
    } else if (key == "evicted_packets") {
      manifest >> evicted_packets;
    } else if (key == "evicted_bytes") {
      manifest >> evicted_bytes;
    } else if (key == "segment") {
      SegmentEntry entry;
      manifest >> entry.seq >> entry.file;
      segment_entries.push_back(std::move(entry));
    } else {
      std::string skipped;
      std::getline(manifest, skipped);
    }
  }

  TraceTap tap(name, config, nullptr);
  tap.set_context(tenant, job);
  for (const auto& entry : segment_entries) {
    const auto bytes = read_file(dir + "/" + entry.file);
    if (!bytes) return std::nullopt;
    if (!tap.archive_.restore_segment(entry.seq, *bytes)) return std::nullopt;
  }
  tap.archive_.restore_counters(total_packets, evicted_segments,
                                evicted_packets, evicted_bytes);

  const auto flows_bytes = read_file(dir + "/flows.txt");
  if (flows_bytes) {
    std::istringstream flows(
        std::string(flows_bytes->begin(), flows_bytes->end()));
    std::string line;
    while (std::getline(flows, line)) {
      // Hardened parser (trace/flow_index.h): malformed lines are
      // dropped, never thrown on — the fuzz suite drives this with
      // mutated archives.
      if (auto record = parse_flow_record_line(line))
        tap.index_.restore(std::move(*record));
    }
  }
  return tap;
}

}  // namespace gq::trace

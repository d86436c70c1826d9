#include "trace/tap.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "flowdb/store.h"
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

/// A whole unsigned decimal field; nullopt on anything else.
std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
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
  // Order makes a torn save fail to load rather than load a partial
  // index: the old manifest goes first and the new one is renamed into
  // place last, after the flow store and every pcap segment. Re-saving
  // replaces the flow store; appending to it would double every flow.
  const std::string manifest_path = dir + "/manifest.txt";
  const std::string flows_dir = dir + "/flows";
  std::filesystem::remove(manifest_path, ec);
  if (!ec) std::filesystem::remove_all(flows_dir, ec);
  if (ec) return false;
  auto store = flowdb::SegmentedStore::open(flows_dir);
  flowdb::Writer writer;
  writer.add_tap(*this);
  if (!store || !store->append_segment(writer)) return false;

  std::ostringstream manifest;
  manifest << "gq-trace 2\n";
  manifest << "name " << name_ << '\n';
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
  if (!write_file(manifest_path + ".tmp", manifest.str())) return false;
  std::filesystem::rename(manifest_path + ".tmp", manifest_path, ec);
  return !ec;
}

std::optional<TraceTap> load_trace(const std::string& dir) {
  const auto manifest_bytes = read_file(dir + "/manifest.txt");
  if (!manifest_bytes) return std::nullopt;
  const auto lines = util::split(
      std::string_view(reinterpret_cast<const char*>(manifest_bytes->data()),
                       manifest_bytes->size()),
      '\n');
  if (lines.empty() || lines[0] != "gq-trace 2") return std::nullopt;

  std::string name = "loaded";
  std::string tenant;
  std::uint64_t job = 0, segment_bytes = ArchiveConfig{}.segment_bytes,
                max_segments = ArchiveConfig{}.max_segments;
  std::uint64_t total_packets = 0, evicted_segments = 0;
  std::uint64_t evicted_packets = 0, evicted_bytes = 0;
  const std::pair<std::string_view, std::uint64_t*> numeric[] = {
      {"job", &job},
      {"segment_bytes", &segment_bytes},
      {"max_segments", &max_segments},
      {"total_packets", &total_packets},
      {"evicted_segments", &evicted_segments},
      {"evicted_packets", &evicted_packets},
      {"evicted_bytes", &evicted_bytes},
  };
  std::vector<std::uint64_t> segment_seqs;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) continue;
    const auto space = line.find(' ');
    const auto key = line.substr(0, space);
    const auto value = space == std::string_view::npos
                           ? std::string_view{}
                           : line.substr(space + 1);
    if (key == "name") {
      name = value;
    } else if (key == "tenant") {
      tenant = value;
    } else if (key == "segment") {
      // Only the name save() gives segment <seq>: a manifest never
      // points a load outside the archive directory.
      const auto fields = util::split_ws(value);
      const auto seq = fields.size() == 2 ? parse_u64(fields[0]) : std::nullopt;
      if (!seq || fields[1] != segment_filename(*seq)) return std::nullopt;
      segment_seqs.push_back(*seq);
    } else {
      // Unknown keys are skipped; a known number must parse.
      for (const auto& [field, target] : numeric) {
        if (key != field) continue;
        const auto parsed = parse_u64(value);
        if (!parsed) return std::nullopt;
        *target = *parsed;
      }
    }
  }

  ArchiveConfig config;
  config.segment_bytes = segment_bytes;
  config.max_segments = max_segments;
  TraceTap tap(name, config, nullptr);
  tap.set_context(tenant, job);
  for (const auto seq : segment_seqs) {
    const auto bytes = read_file(dir + "/" + segment_filename(seq));
    if (!bytes || !tap.archive_.restore_segment(seq, *bytes))
      return std::nullopt;
  }
  tap.archive_.restore_counters(total_packets, evicted_segments,
                                evicted_packets, evicted_bytes);

  // The flow index is a FlowDB store; a missing store, a segment that
  // fails validation or a row record_from rejects fails the load.
  auto flows = flowdb::SegmentedReader::open(dir + "/flows");
  if (!flows) return std::nullopt;
  for (std::uint64_t i = 0; i < flows->rows(); ++i) {
    const auto row = flows->row(i);
    auto record = row ? flowdb::record_from(*row) : std::nullopt;
    if (!record) return std::nullopt;
    tap.index_.restore(std::move(*record));
  }
  return tap;
}

}  // namespace gq::trace

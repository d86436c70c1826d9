#include "flowdb/flowdb.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <unordered_map>

namespace gq::flowdb {

namespace {

constexpr std::uint64_t align8(std::uint64_t x) { return (x + 7) & ~7ull; }

/// The fixed column schema, in cols_[] order. A store must carry all
/// of these (extra columns are skipped); types are validated on open.
struct ColumnSpec {
  const char* name;
  ColumnType type;
  std::uint32_t elem;
};
constexpr ColumnSpec kColumns[] = {
    {"proto", ColumnType::kU8, 1},     {"src_addr", ColumnType::kU32, 4},
    {"src_port", ColumnType::kU16, 2}, {"dst_addr", ColumnType::kU32, 4},
    {"dst_port", ColumnType::kU16, 2}, {"vlan", ColumnType::kU16, 2},
    {"tenant", ColumnType::kU32, 4},   {"job", ColumnType::kU64, 8},
    {"verdict", ColumnType::kU8, 1},   {"vsrc", ColumnType::kU8, 1},
    {"policy", ColumnType::kU32, 4},   {"tap", ColumnType::kU32, 4},
    {"packets", ColumnType::kU64, 8},  {"bytes", ColumnType::kU64, 8},
    {"first_usec", ColumnType::kI64, 8}, {"last_usec", ColumnType::kI64, 8},
    {"loc_start", ColumnType::kU64, 8}, {"loc_count", ColumnType::kU32, 4},
};
constexpr std::size_t kColumnCount = std::size(kColumns);
static_assert(kColumnCount == 18);

std::uint32_t elem_size_for(std::uint32_t type) {
  switch (static_cast<ColumnType>(type)) {
    case ColumnType::kU8: return 1;
    case ColumnType::kU16: return 2;
    case ColumnType::kU32: return 4;
    case ColumnType::kU64: return 8;
    case ColumnType::kI64: return 8;
  }
  return 0;
}

template <typename T>
void append_raw(std::vector<std::uint8_t>& out, const T* data,
                std::size_t count) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + count * sizeof(T));
}

void pad_to(std::vector<std::uint8_t>& out, std::uint64_t offset) {
  out.resize(offset, 0);
}

std::uint64_t fnv1a_tagged(std::uint8_t tag, const std::uint8_t* data,
                          std::size_t len) {
  std::uint64_t hash = 1469598103934665603ull;
  hash ^= tag;
  hash *= 1099511628211ull;
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The column arrays a zone block is derived from. Shared between the
/// writer (sealing) and the reader (recompute-verify at load), so both
/// sides produce bit-identical zone bytes by construction.
struct ZoneInputs {
  std::uint64_t n = 0;
  const std::int64_t* first = nullptr;
  const std::int64_t* last = nullptr;
  const std::uint16_t* vlan = nullptr;
  const std::uint16_t* sport = nullptr;
  const std::uint16_t* dport = nullptr;
  const std::uint64_t* packets = nullptr;
  const std::uint64_t* bytes = nullptr;
  const std::uint32_t* saddr = nullptr;
  const std::uint32_t* daddr = nullptr;
  const std::uint32_t* tenant = nullptr;
};

/// `dict_size` ids are valid; `dict(id)` returns the name of a valid
/// id. Any other id reads as the empty string, as Reader::dict() does.
template <typename DictFn>
ZoneMap compute_zone(const ZoneInputs& in, std::uint64_t dict_size,
                     DictFn&& dict) {
  ZoneMap z{};
  z.row_count = in.n;
  // Empty-range sentinels; never consulted when row_count == 0.
  z.min_first_usec = std::numeric_limits<std::int64_t>::max();
  z.max_last_usec = std::numeric_limits<std::int64_t>::min();
  z.min_vlan = 0xFFFF;
  z.max_vlan = 0;
  z.min_port = 0xFFFF;
  z.max_port = 0;
  z.min_packets = std::numeric_limits<std::uint64_t>::max();
  z.max_packets = 0;
  z.min_bytes = std::numeric_limits<std::uint64_t>::max();
  z.max_bytes = 0;
  for (std::uint64_t i = 0; i < in.n; ++i) {
    z.min_first_usec = std::min(z.min_first_usec, in.first[i]);
    z.max_last_usec = std::max(z.max_last_usec, in.last[i]);
    z.min_vlan = std::min(z.min_vlan, in.vlan[i]);
    z.max_vlan = std::max(z.max_vlan, in.vlan[i]);
    z.min_port = std::min({z.min_port, in.sport[i], in.dport[i]});
    z.max_port = std::max({z.max_port, in.sport[i], in.dport[i]});
    z.min_packets = std::min(z.min_packets, in.packets[i]);
    z.max_packets = std::max(z.max_packets, in.packets[i]);
    z.min_bytes = std::min(z.min_bytes, in.bytes[i]);
    z.max_bytes = std::max(z.max_bytes, in.bytes[i]);
  }

  // Bloom keys. bloom_add is idempotent, so each distinct key is added
  // once: a tenant key once per dictionary id (one shared slot for
  // out-of-range ids), an endpoint key only when a small direct-mapped
  // memo of recently added addresses misses. The bloom bytes are
  // exactly those of adding all three keys of every row.
  std::vector<bool> tenant_added(dict_size + 1);
  std::vector<std::uint64_t> recent(4096);  // addr | 1 << 32; 0 = empty.
  const auto add_endpoint = [&](std::uint32_t addr) {
    const std::uint64_t tagged = addr | 1ull << 32;
    std::uint64_t& slot = recent[(addr * 0x9E3779B1u) >> 20];
    if (slot == tagged) return;
    slot = tagged;
    bloom_add(z.bloom, bloom_key_endpoint(addr));
  };
  for (std::uint64_t i = 0; i < in.n; ++i) {
    const std::uint64_t id = std::min<std::uint64_t>(in.tenant[i], dict_size);
    if (!tenant_added[id]) {
      tenant_added[id] = true;
      bloom_add(z.bloom,
                bloom_key_tenant(id < dict_size
                                     ? dict(static_cast<std::uint32_t>(id))
                                     : std::string_view{}));
    }
    add_endpoint(in.saddr[i]);
    add_endpoint(in.daddr[i]);
  }
  return z;
}

std::vector<ChunkZone> compute_chunk_zones(std::uint64_t n,
                                           const std::int64_t* first,
                                           const std::int64_t* last) {
  const std::uint64_t chunks = (n + kScanChunk - 1) / kScanChunk;
  std::vector<ChunkZone> zones(chunks);
  for (std::uint64_t c = 0; c < chunks; ++c) {
    const std::uint64_t begin = c * kScanChunk;
    const std::uint64_t end = std::min(n, begin + kScanChunk);
    ChunkZone& z = zones[c];
    z.min_first_usec = first[begin];
    z.max_last_usec = last[begin];
    for (std::uint64_t i = begin + 1; i < end; ++i) {
      z.min_first_usec = std::min(z.min_first_usec, first[i]);
      z.max_last_usec = std::max(z.max_last_usec, last[i]);
    }
  }
  return zones;
}

}  // namespace

std::uint64_t bloom_key_tenant(std::string_view name) {
  return fnv1a_tagged(
      'T', reinterpret_cast<const std::uint8_t*>(name.data()), name.size());
}

std::uint64_t bloom_key_endpoint(std::uint32_t addr_value) {
  std::uint8_t bytes[4];
  std::memcpy(bytes, &addr_value, 4);
  return fnv1a_tagged('A', bytes, 4);
}

void bloom_add(std::uint8_t* bloom, std::uint64_t key) {
  const std::uint64_t h1 = key;
  const std::uint64_t h2 = (key >> 33) | 1;  // Odd stride covers all bits.
  for (unsigned k = 0; k < kBloomHashes; ++k) {
    const std::uint64_t bit = (h1 + k * h2) % kBloomBits;
    bloom[bit >> 3] |= static_cast<std::uint8_t>(1u << (bit & 7));
  }
}

bool bloom_may_contain(const std::uint8_t* bloom, std::uint64_t key) {
  const std::uint64_t h1 = key;
  const std::uint64_t h2 = (key >> 33) | 1;
  for (unsigned k = 0; k < kBloomHashes; ++k) {
    const std::uint64_t bit = (h1 + k * h2) % kBloomBits;
    if (!(bloom[bit >> 3] & (1u << (bit & 7)))) return false;
  }
  return true;
}

std::uint64_t seal_hash(std::span<const std::uint8_t> bytes) {
  // Four independent lanes, each fed every fourth 8-byte word. A step
  // is a bijection of the lane for a fixed word and injective in the
  // word for a fixed lane, so changing one word always changes that
  // lane's final state; the lanes are then combined by a sum of
  // per-lane bijections, so a single-word edit always changes the sum.
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;  // Odd.
  const auto step = [](std::uint64_t lane, std::uint64_t word) {
    return std::rotl((lane ^ word) * kMul, 31);
  };
  const auto word_at = [](const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);  // Host order, like the rest of the format.
    return w;
  };
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  std::uint64_t lanes[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                            0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  std::size_t i = 0;
  for (; n - i >= 32; i += 32) {
    lanes[0] = step(lanes[0], word_at(p + i));
    lanes[1] = step(lanes[1], word_at(p + i + 8));
    lanes[2] = step(lanes[2], word_at(p + i + 16));
    lanes[3] = step(lanes[3], word_at(p + i + 24));
  }
  // Tail: up to three whole words, then the last 0..7 bytes zero-padded
  // into the next lane. Every tail word lands in a different lane.
  std::size_t lane = 0;
  for (; n - i >= 8; i += 8, ++lane)
    lanes[lane] = step(lanes[lane], word_at(p + i));
  if (i < n) {
    std::uint64_t last = 0;
    std::memcpy(&last, p + i, n - i);
    lanes[lane] = step(lanes[lane], last);
  }
  std::uint64_t h = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
                    std::rotl(lanes[2], 12) + std::rotl(lanes[3], 18);
  // The length tells a zero-padded tail from real zero bytes.
  h ^= static_cast<std::uint64_t>(n);
  // Avalanche (the MurmurHash3 64-bit finalizer, a bijection).
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

Row row_from(const trace::FlowRecord& record, std::string_view tap_name) {
  Row row;
  row.proto = record.key.proto;
  row.src = record.key.src;
  row.dst = record.key.dst;
  row.vlan = record.vlan;
  row.tenant = record.tenant;
  row.job = record.job;
  if (record.has_verdict) {
    row.verdict = static_cast<std::uint8_t>(record.verdict);
    row.source = static_cast<std::uint8_t>(record.verdict_source);
  }
  row.policy = record.policy_name;
  row.tap = std::string(tap_name);
  row.packets = record.packets;
  row.bytes = record.bytes;
  row.first_usec = record.first_time.usec;
  row.last_usec = record.last_time.usec;
  row.locations = record.locations;
  return row;
}

std::optional<trace::FlowRecord> record_from(const Row& row) {
  if (row.proto != pkt::FlowProto::kTcp && row.proto != pkt::FlowProto::kUdp)
    return std::nullopt;
  trace::FlowRecord record;
  record.key = {row.proto, row.src, row.dst};
  record.vlan = row.vlan;
  record.tenant = row.tenant;
  record.job = row.job;
  if (row.verdict != 0) {
    if (row.verdict > static_cast<std::uint8_t>(shim::Verdict::kRewrite) ||
        row.source > static_cast<std::uint8_t>(shim::VerdictSource::kTable))
      return std::nullopt;
    record.has_verdict = true;
    record.verdict = static_cast<shim::Verdict>(row.verdict);
    record.verdict_source = static_cast<shim::VerdictSource>(row.source);
  }
  record.policy_name = row.policy;
  record.packets = row.packets;
  record.bytes = row.bytes;
  record.first_time.usec = row.first_usec;
  record.last_time.usec = row.last_usec;
  record.locations = row.locations;
  return record;
}

Writer::Writer(obs::MetricsRegistry* metrics) : metrics_(metrics) {}

void Writer::add(Row row) { rows_.push_back(std::move(row)); }

void Writer::add_index(const trace::FlowIndex& index,
                       std::string_view tap_name) {
  for (const auto& record : index.flows()) add(row_from(record, tap_name));
}

void Writer::add_tap(const trace::TraceTap& tap) {
  add_index(tap.index(), tap.name());
}

std::vector<std::uint8_t> Writer::encode() const {
  const std::uint64_t n = rows_.size();

  // Intern tenant/policy/tap names; id 0 is the empty string.
  std::vector<std::string_view> dict{""};
  std::unordered_map<std::string_view, std::uint32_t> ids{{"", 0}};
  auto intern = [&](const std::string& s) -> std::uint32_t {
    auto it = ids.find(s);
    if (it != ids.end()) return it->second;
    const auto id = static_cast<std::uint32_t>(dict.size());
    dict.push_back(s);
    ids.emplace(dict.back(), id);
    return id;
  };

  // Build the typed column arrays and the shared location array.
  std::vector<std::uint8_t> c_proto(n), c_verdict(n), c_vsrc(n);
  std::vector<std::uint16_t> c_sport(n), c_dport(n), c_vlan(n);
  std::vector<std::uint32_t> c_saddr(n), c_daddr(n), c_tenant(n),
      c_policy(n), c_tap(n), c_loc_count(n);
  std::vector<std::uint64_t> c_job(n), c_packets(n), c_bytes(n),
      c_loc_start(n);
  std::vector<std::int64_t> c_first(n), c_last(n);
  std::vector<LocEntry> locs;
  for (std::uint64_t i = 0; i < n; ++i) {
    const Row& row = rows_[i];
    c_proto[i] = static_cast<std::uint8_t>(row.proto);
    c_saddr[i] = row.src.addr.value();
    c_sport[i] = row.src.port;
    c_daddr[i] = row.dst.addr.value();
    c_dport[i] = row.dst.port;
    c_vlan[i] = row.vlan;
    c_tenant[i] = intern(row.tenant);
    c_job[i] = row.job;
    c_verdict[i] = row.verdict;
    c_vsrc[i] = row.source;
    c_policy[i] = intern(row.policy);
    c_tap[i] = intern(row.tap);
    c_packets[i] = row.packets;
    c_bytes[i] = row.bytes;
    c_first[i] = row.first_usec;
    c_last[i] = row.last_usec;
    c_loc_start[i] = locs.size();
    c_loc_count[i] = static_cast<std::uint32_t>(row.locations.size());
    for (const auto& loc : row.locations)
      locs.push_back({loc.segment, loc.offset});
  }
  const void* column_data[kColumnCount] = {
      c_proto.data(),  c_saddr.data(),   c_sport.data(), c_daddr.data(),
      c_dport.data(),  c_vlan.data(),    c_tenant.data(), c_job.data(),
      c_verdict.data(), c_vsrc.data(),   c_policy.data(), c_tap.data(),
      c_packets.data(), c_bytes.data(),  c_first.data(),  c_last.data(),
      c_loc_start.data(), c_loc_count.data(),
  };

  // Dictionary entries + blob.
  std::vector<DictEntry> entries(dict.size());
  std::string blob;
  for (std::size_t i = 0; i < dict.size(); ++i) {
    entries[i].offset = blob.size();
    entries[i].len = dict[i].size();
    blob.append(dict[i]);
  }

  // Lay out offsets: header, column table, dict entries, locations,
  // column data, blob, footer — every region 8-aligned.
  FileHeader header;
  header.column_count = static_cast<std::uint32_t>(kColumnCount);
  header.row_count = n;
  header.columns_offset = align8(sizeof(FileHeader));
  header.dict_offset =
      align8(header.columns_offset + kColumnCount * sizeof(ColumnDesc));
  header.dict_count = entries.size();
  header.loc_offset =
      align8(header.dict_offset + entries.size() * sizeof(DictEntry));
  header.loc_count = locs.size();
  std::uint64_t cursor =
      align8(header.loc_offset + locs.size() * sizeof(LocEntry));
  ColumnDesc descs[kColumnCount] = {};
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    std::strncpy(descs[c].name, kColumns[c].name, sizeof(descs[c].name) - 1);
    descs[c].type = static_cast<std::uint32_t>(kColumns[c].type);
    descs[c].elem_size = kColumns[c].elem;
    descs[c].offset = cursor;
    cursor = align8(cursor + n * kColumns[c].elem);
  }
  header.blob_offset = cursor;
  header.blob_bytes = blob.size();

  // Zone block: file-level min/max + bloom, then per-chunk time
  // bounds. Derived purely from the column arrays above — the reader
  // recomputes and compares at load time.
  const ZoneInputs zone_in{n,
                           c_first.data(),
                           c_last.data(),
                           c_vlan.data(),
                           c_sport.data(),
                           c_dport.data(),
                           c_packets.data(),
                           c_bytes.data(),
                           c_saddr.data(),
                           c_daddr.data(),
                           c_tenant.data()};
  const ZoneMap zone = compute_zone(
      zone_in, dict.size(), [&](std::uint32_t id) { return dict[id]; });
  const std::vector<ChunkZone> chunk_zones =
      compute_chunk_zones(n, c_first.data(), c_last.data());
  header.zone_offset = align8(header.blob_offset + blob.size());
  header.zone_bytes =
      sizeof(ZoneMap) + chunk_zones.size() * sizeof(ChunkZone);
  header.footer_offset = align8(header.zone_offset + header.zone_bytes);

  std::vector<std::uint8_t> out;
  out.reserve(header.footer_offset + 16);
  append_raw(out, &header, 1);
  pad_to(out, header.columns_offset);
  append_raw(out, descs, kColumnCount);
  pad_to(out, header.dict_offset);
  append_raw(out, entries.data(), entries.size());
  pad_to(out, header.loc_offset);
  append_raw(out, locs.data(), locs.size());
  for (std::size_t c = 0; c < kColumnCount; ++c) {
    pad_to(out, descs[c].offset);
    append_raw(out, static_cast<const std::uint8_t*>(column_data[c]),
               n * kColumns[c].elem);
  }
  pad_to(out, header.blob_offset);
  append_raw(out, blob.data(), blob.size());
  pad_to(out, header.zone_offset);
  append_raw(out, &zone, 1);
  append_raw(out, chunk_zones.data(), chunk_zones.size());
  pad_to(out, header.footer_offset);
  const std::uint64_t hash = seal_hash(out);
  append_raw(out, &hash, 1);
  append_raw(out, &kEndMagic, 1);

  if (metrics_) {
    metrics_->counter("flowdb.rows_written").inc(n);
    metrics_->counter("flowdb.bytes_written").inc(out.size());
  }
  return out;
}

// --- Reader ---------------------------------------------------------------

Reader::Reader(Reader&& other) noexcept { *this = std::move(other); }

Reader& Reader::operator=(Reader&& other) noexcept {
  if (this == &other) return *this;
  reset();
  base_ = other.base_;
  size_ = other.size_;
  owned_ = std::move(other.owned_);
  map_ = other.map_;
  map_len_ = other.map_len_;
  rows_ = other.rows_;
  dict_count_ = other.dict_count_;
  dict_entries_ = other.dict_entries_;
  blob_ = other.blob_;
  blob_bytes_ = other.blob_bytes_;
  locs_ = other.locs_;
  loc_count_total_ = other.loc_count_total_;
  zone_ = other.zone_;
  chunk_zones_ = other.chunk_zones_;
  chunk_count_ = other.chunk_count_;
  std::memcpy(cols_, other.cols_, sizeof(cols_));
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.base_ = nullptr;
  return *this;
}

Reader::~Reader() { reset(); }

void Reader::reset() noexcept {
  if (map_) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    map_len_ = 0;
  }
  owned_.clear();
  base_ = nullptr;
  size_ = 0;
}

std::optional<Reader> Reader::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  struct stat st = {};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return std::nullopt;
  }
  const auto len = static_cast<std::uint64_t>(st.st_size);
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // The mapping outlives the descriptor.
  if (map == MAP_FAILED) return std::nullopt;

  Reader reader;
  reader.map_ = map;
  reader.map_len_ = len;
  reader.base_ = static_cast<const std::uint8_t*>(map);
  reader.size_ = len;
  if (!reader.validate_and_index()) return std::nullopt;
  return reader;
}

std::optional<Reader> Reader::parse(std::vector<std::uint8_t> bytes) {
  Reader reader;
  reader.owned_ = std::move(bytes);
  reader.base_ = reader.owned_.data();
  reader.size_ = reader.owned_.size();
  if (!reader.validate_and_index()) return std::nullopt;
  return reader;
}

bool Reader::validate_and_index() {
  // Bounds check helper, overflow-safe: `count` elements of `elem`
  // bytes starting at `off` must sit inside [0, limit).
  const auto region_ok = [](std::uint64_t off, std::uint64_t count,
                            std::uint64_t elem, std::uint64_t limit) {
    return off <= limit && elem > 0 && count <= (limit - off) / elem;
  };

  if (size_ < sizeof(FileHeader) + 16) return false;
  FileHeader h;
  std::memcpy(&h, base_, sizeof h);
  if (h.magic != kMagic || h.version != kVersion) return false;
  // The self-declared footer offset must agree with the real file size
  // (a store that lies about its own length is rejected, not trusted).
  if (h.footer_offset != size_ - 16 || h.footer_offset < sizeof(FileHeader))
    return false;
  std::uint64_t stored_hash = 0, end_magic = 0;
  std::memcpy(&stored_hash, base_ + h.footer_offset, 8);
  std::memcpy(&end_magic, base_ + h.footer_offset + 8, 8);
  if (end_magic != kEndMagic) return false;
  if (seal_hash({base_, h.footer_offset}) != stored_hash) return false;

  const std::uint64_t limit = h.footer_offset;
  if (h.columns_offset % 8 != 0 ||
      !region_ok(h.columns_offset, h.column_count, sizeof(ColumnDesc), limit))
    return false;
  if (h.dict_offset % 8 != 0 ||
      !region_ok(h.dict_offset, h.dict_count, sizeof(DictEntry), limit))
    return false;
  if (h.loc_offset % 8 != 0 ||
      !region_ok(h.loc_offset, h.loc_count, sizeof(LocEntry), limit))
    return false;
  if (!region_ok(h.blob_offset, h.blob_bytes, 1, limit)) return false;
  // Zone block: the declared size must match the chunk grid exactly.
  // row_count > limit can never validate (every column needs >= 1 byte
  // per row) and would overflow the chunk arithmetic below.
  if (h.row_count > limit) return false;
  const std::uint64_t chunk_count =
      (h.row_count + kScanChunk - 1) / kScanChunk;
  if (h.zone_offset % 8 != 0 ||
      !region_ok(h.zone_offset, h.zone_bytes, 1, limit))
    return false;
  if (h.zone_bytes != sizeof(ZoneMap) + chunk_count * sizeof(ChunkZone))
    return false;

  // Resolve the known columns by name; every one must be present with
  // the right type, correctly aligned, and fully inside the file.
  // Unknown extra columns are skipped (forward compatibility).
  bool found[kColumnCount] = {};
  const auto* descs =
      reinterpret_cast<const ColumnDesc*>(base_ + h.columns_offset);
  for (std::uint32_t c = 0; c < h.column_count; ++c) {
    ColumnDesc d;
    std::memcpy(&d, &descs[c], sizeof d);
    if (d.name[sizeof(d.name) - 1] != '\0') return false;
    if (d.elem_size == 0 || d.elem_size != elem_size_for(d.type))
      return false;
    if (d.offset % d.elem_size != 0 ||
        !region_ok(d.offset, h.row_count, d.elem_size, limit))
      return false;
    for (std::size_t k = 0; k < kColumnCount; ++k) {
      if (std::strcmp(d.name, kColumns[k].name) != 0) continue;
      if (d.type != static_cast<std::uint32_t>(kColumns[k].type) ||
          found[k])
        return false;
      found[k] = true;
      cols_[k] = base_ + d.offset;
      break;
    }
  }
  for (const bool f : found)
    if (!f) return false;

  // Dictionary entries must stay inside the blob.
  const auto* entries =
      reinterpret_cast<const DictEntry*>(base_ + h.dict_offset);
  for (std::uint64_t i = 0; i < h.dict_count; ++i) {
    DictEntry e;
    std::memcpy(&e, &entries[i], sizeof e);
    if (e.offset > h.blob_bytes || e.len > h.blob_bytes - e.offset)
      return false;
  }

  rows_ = h.row_count;
  dict_count_ = h.dict_count;
  dict_entries_ = entries;
  blob_ = reinterpret_cast<const char*>(base_ + h.blob_offset);
  blob_bytes_ = h.blob_bytes;
  locs_ = reinterpret_cast<const LocEntry*>(base_ + h.loc_offset);
  loc_count_total_ = h.loc_count;
  zone_ = reinterpret_cast<const ZoneMap*>(base_ + h.zone_offset);
  chunk_zones_ = reinterpret_cast<const ChunkZone*>(
      base_ + h.zone_offset + sizeof(ZoneMap));
  chunk_count_ = chunk_count;

  // The zone block is derived data: recompute it from the (validated)
  // columns and require byte equality. A footer-resealed zone map that
  // lies about its bounds — and could make the planner prune rows the
  // file actually contains — is rejected here, at load time.
  const ZoneInputs zone_in{
      rows_,
      static_cast<const std::int64_t*>(cols_[14]),
      static_cast<const std::int64_t*>(cols_[15]),
      static_cast<const std::uint16_t*>(cols_[5]),
      static_cast<const std::uint16_t*>(cols_[2]),
      static_cast<const std::uint16_t*>(cols_[4]),
      static_cast<const std::uint64_t*>(cols_[12]),
      static_cast<const std::uint64_t*>(cols_[13]),
      static_cast<const std::uint32_t*>(cols_[1]),
      static_cast<const std::uint32_t*>(cols_[3]),
      static_cast<const std::uint32_t*>(cols_[6])};
  const ZoneMap want_zone = compute_zone(
      zone_in, dict_count_, [this](std::uint32_t id) { return dict(id); });
  if (std::memcmp(zone_, &want_zone, sizeof(ZoneMap)) != 0) return false;
  const std::vector<ChunkZone> want_chunks =
      compute_chunk_zones(rows_, zone_in.first, zone_in.last);
  if (chunk_count_ > 0 &&
      std::memcmp(chunk_zones_, want_chunks.data(),
                  chunk_count_ * sizeof(ChunkZone)) != 0)
    return false;
  return true;
}

#define GQ_FDB_COLUMN(method, type, index)                      \
  std::span<const type> Reader::method() const {                \
    return {static_cast<const type*>(cols_[index]), rows_};     \
  }
GQ_FDB_COLUMN(proto, std::uint8_t, 0)
GQ_FDB_COLUMN(src_addr, std::uint32_t, 1)
GQ_FDB_COLUMN(src_port, std::uint16_t, 2)
GQ_FDB_COLUMN(dst_addr, std::uint32_t, 3)
GQ_FDB_COLUMN(dst_port, std::uint16_t, 4)
GQ_FDB_COLUMN(vlan, std::uint16_t, 5)
GQ_FDB_COLUMN(tenant, std::uint32_t, 6)
GQ_FDB_COLUMN(job, std::uint64_t, 7)
GQ_FDB_COLUMN(verdict, std::uint8_t, 8)
GQ_FDB_COLUMN(verdict_source, std::uint8_t, 9)
GQ_FDB_COLUMN(policy, std::uint32_t, 10)
GQ_FDB_COLUMN(tap, std::uint32_t, 11)
GQ_FDB_COLUMN(packets, std::uint64_t, 12)
GQ_FDB_COLUMN(bytes, std::uint64_t, 13)
GQ_FDB_COLUMN(first_usec, std::int64_t, 14)
GQ_FDB_COLUMN(last_usec, std::int64_t, 15)
GQ_FDB_COLUMN(loc_start, std::uint64_t, 16)
GQ_FDB_COLUMN(loc_count, std::uint32_t, 17)
#undef GQ_FDB_COLUMN

std::string_view Reader::dict(std::uint32_t id) const {
  if (id >= dict_count_) return {};
  DictEntry e;
  std::memcpy(&e, &dict_entries_[id], sizeof e);
  return {blob_ + e.offset, static_cast<std::size_t>(e.len)};
}

std::optional<std::uint32_t> Reader::dict_id(std::string_view name) const {
  for (std::uint64_t i = 0; i < dict_count_; ++i)
    if (dict(static_cast<std::uint32_t>(i)) == name)
      return static_cast<std::uint32_t>(i);
  return std::nullopt;
}

std::span<const LocEntry> Reader::locations_of(std::uint64_t row) const {
  if (row >= rows_) return {};
  const std::uint64_t start = loc_start()[row];
  if (start >= loc_count_total_) return {};
  const std::uint64_t count =
      std::min<std::uint64_t>(loc_count()[row], loc_count_total_ - start);
  return {locs_ + start, static_cast<std::size_t>(count)};
}

Row Reader::row(std::uint64_t index) const {
  Row row;
  if (index >= rows_) return row;
  row.proto = static_cast<pkt::FlowProto>(proto()[index]);
  row.src = {util::Ipv4Addr(src_addr()[index]), src_port()[index]};
  row.dst = {util::Ipv4Addr(dst_addr()[index]), dst_port()[index]};
  row.vlan = vlan()[index];
  row.tenant = std::string(dict(tenant()[index]));
  row.job = job()[index];
  row.verdict = verdict()[index];
  row.source = verdict_source()[index];
  row.policy = std::string(dict(policy()[index]));
  row.tap = std::string(dict(tap()[index]));
  row.packets = packets()[index];
  row.bytes = bytes()[index];
  row.first_usec = first_usec()[index];
  row.last_usec = last_usec()[index];
  for (const auto& loc : locations_of(index))
    row.locations.push_back({loc.segment, loc.offset});
  return row;
}

}  // namespace gq::flowdb

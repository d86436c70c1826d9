#include "core/sharded_farm.h"

#include <algorithm>

#include "obs/events.h"
#include "util/rng.h"

namespace gq::core {

namespace {
// One-way latency of the chain links bridging neighbouring shards'
// external switches. This is the conservative lookahead: the epoch
// length equals the minimum cross-shard latency, so a WAN-scale value
// keeps barriers few.
constexpr util::Duration kCrossShardLatency = util::milliseconds(10);
}  // namespace

ShardedFarm::ShardedFarm(ShardedFarmOptions options,
                         const ShardBuilder& builder)
    : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  coordinator_ = std::make_unique<sim::LockstepCoordinator>();

  // Independent per-shard seed streams derived from the master seed:
  // shard 0 of a 4-shard farm and shard 0 of an 8-shard farm see the
  // same stream, and no shard shares state with another.
  util::Rng seeder(options_.seed);

  std::vector<std::size_t> domains;
  for (std::size_t s = 0; s < options_.shards; ++s) {
    FarmOptions fo;
    fo.seed = seeder.next();
    fo.mac_namespace = static_cast<std::uint32_t>(s) << 20;
    fo.subfarm_index_base = static_cast<int>(s) * 8;
    fo.gateway_upstream =
        util::Ipv4Addr(203, 0, 113, static_cast<std::uint8_t>(1 + s));
    fo.mgmt_net = util::Ipv4Net(
        util::Ipv4Addr(10, 3, static_cast<std::uint8_t>(s), 0), 24);
    fo.datapath = options_.datapath;
    fo.trace_archive = options_.trace_archive;
    farms_.push_back(std::make_unique<Farm>(fo));
    domains.push_back(coordinator_->add_domain(farms_.back()->loop()));

    auto capture = std::make_unique<ShardCapture>();
    capture->shard = s;
    ShardCapture* slot = capture.get();
    // Rendered eagerly so the stream reflects the event exactly as
    // published.
    farms_.back()->telemetry().bus().subscribe(
        [slot](const obs::FarmEvent& ev) {
          slot->events.push_back(
              CapturedEvent{ev.time.usec, obs::format_event(ev)});
        });
    captures_.push_back(std::move(capture));
  }

  // Chain bridging of the external switches: no L2 loops (the learning
  // switches run no spanning tree), and ARP floods traverse the whole
  // chain so every shard's simulated Internet is one broadcast domain.
  for (std::size_t s = 0; s + 1 < options_.shards; ++s) {
    sim::Port& left = farms_[s]->claim_external_bridge_port();
    sim::Port& right = farms_[s + 1]->claim_external_bridge_port();
    coordinator_->bridge(domains[s], left, domains[s + 1], right,
                         kCrossShardLatency);
  }

  if (builder) {
    for (std::size_t s = 0; s < options_.shards; ++s) {
      builder(*farms_[s], s);
    }
  }
}

ShardedFarm::~ShardedFarm() = default;

std::vector<std::string> ShardedFarm::merged_event_lines() const {
  struct Tagged {
    std::int64_t usec;
    std::size_t shard;
    const std::string* line;
  };
  std::vector<Tagged> all;
  for (const auto& capture : captures_) {
    for (const CapturedEvent& ev : capture->events) {
      all.push_back(Tagged{ev.usec, capture->shard, &ev.line});
    }
  }
  // (time, shard) with per-shard publication order preserved by the
  // stable sort — deterministic because each shard's own stream is.
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     if (a.usec != b.usec) return a.usec < b.usec;
                     return a.shard < b.shard;
                   });
  std::vector<std::string> lines;
  lines.reserve(all.size());
  for (const Tagged& t : all) {
    lines.push_back("s" + std::to_string(t.shard) + " " + *t.line);
  }
  return lines;
}

std::uint64_t ShardedFarm::event_count() const {
  std::uint64_t n = 0;
  for (const auto& capture : captures_) n += capture->events.size();
  return n;
}

}  // namespace gq::core

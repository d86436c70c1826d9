// gq::core::ShardedFarm — farm execution over subfarm shards
// (DESIGN.md §12). GQ's scaling unit is the subfarm: an independent
// containment domain with its own packet router, containment server,
// sinks, and VLAN range. A ShardedFarm instantiates one complete Farm
// replica per shard — each with its own gateway, telemetry, and Rng
// stream — on one shared sim::EventLoop. Shards share one simulated
// Internet: their external switches are cabled in a chain with
// sim::Port::connect, so a host homed on shard 0 (a C&C server, say) is
// reachable from inmates on every shard, with the gateways' disjoint
// proxy-ARP ranges doing the routing.
//
// Per-shard namespaces keep the shared segment coherent:
//   * MAC ids offset by shard << 20 (gateway legs + hosts) so the
//     chained switches' MAC learning never sees a duplicate address,
//   * upstream addresses 203.0.113.<1+shard>,
//   * management nets 10.3.<shard>.0/24 (each gateway proxy-ARPs its
//     management range on the shared segment),
//   * subfarm index bases spaced by 8 so auto-assigned NAT external
//     ranges 198.<18+i>.0.0/24 are disjoint across shards.
//
// Determinism: with a fixed options.seed, run_for() produces
// bit-identical observable event streams (merged_event_lines) on every
// rerun. tests/shard_test.cc holds this as a same-seed rerun gate.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/farm.h"
#include "netsim/event_loop.h"
#include "netsim/port.h"

namespace gq::sim {
/// What perfbench's `detonate` still reads of the retired lockstep
/// layer: `epochs` is always 0 and `messages` counts cross-shard
/// frames. The next benchmark PR drops those reads, then this struct.
struct LockstepStats {
  std::uint64_t epochs = 0;
  std::uint64_t messages = 0;
};
}  // namespace gq::sim

namespace gq::core {

struct ShardedFarmOptions {
  std::size_t shards = 4;
  /// Ignored; the next benchmark PR deletes the perfbench assignments
  /// and then this field.
  unsigned threads = 1;
  std::uint64_t seed = 0x6071;
  /// Applied to every shard's FarmOptions.
  gw::DatapathOptions datapath;
  trace::ArchiveConfig trace_archive;
};

class ShardedFarm {
 public:
  /// Called once per shard, after the shard farms and bridges exist, to
  /// populate subfarms/sinks/inmates. Everything the builder creates
  /// lives and dies with the shard's Farm; objects that must outlive
  /// the builder but die before the farm (e.g. ext::CcServer holding a
  /// host's HttpServer) belong in the caller's scope, created after the
  /// ShardedFarm and anchored on shard(i).
  using ShardBuilder = std::function<void(Farm& farm, std::size_t shard)>;

  ShardedFarm(ShardedFarmOptions options, const ShardBuilder& builder);
  ~ShardedFarm();

  ShardedFarm(const ShardedFarm&) = delete;
  ShardedFarm& operator=(const ShardedFarm&) = delete;

  [[nodiscard]] std::size_t shard_count() const { return farms_.size(); }
  [[nodiscard]] Farm& shard(std::size_t i) { return *farms_.at(i); }
  /// The one loop every shard runs on.
  [[nodiscard]] const sim::EventLoop& loop() const { return loop_; }

  /// Frames delivered across the chain links between shards.
  [[nodiscard]] std::uint64_t cross_shard_frames() const;

  /// Kept for perfbench until the next benchmark PR: {0,
  /// cross_shard_frames()}.
  [[nodiscard]] sim::LockstepStats lockstep_stats() const {
    return {0, cross_shard_frames()};
  }

  /// Advance all shards together.
  void run_for(util::Duration d) { loop_.run_for(d); }

  /// The canonical observable stream: every FarmEvent from every shard,
  /// rendered with obs::format_event, merged in (time, shard,
  /// per-shard seq) order. Byte-identical across reruns with the same
  /// seed — the determinism gates compare exactly this.
  [[nodiscard]] std::vector<std::string> merged_event_lines() const;

  /// Total FarmEvents captured across shards.
  [[nodiscard]] std::uint64_t event_count() const;

 private:
  struct CapturedEvent {
    std::int64_t usec;
    std::string line;
  };
  /// Filled while the shard runs; read after run_for returns.
  struct ShardCapture {
    std::size_t shard = 0;
    std::vector<CapturedEvent> events;
  };

  ShardedFarmOptions options_;
  // Declaration order is teardown order in reverse: farms_ die first
  // (after ~ShardedFarm dropped the loop's pending events), captures_
  // next because bus subscriptions inside farms reference it, and the
  // loop last because every shard's devices hold it.
  sim::EventLoop loop_;
  std::vector<std::unique_ptr<ShardCapture>> captures_;
  std::vector<std::unique_ptr<Farm>> farms_;
  // Both ends of every chain link between neighbouring shards.
  std::vector<sim::Port*> chain_ports_;
};

}  // namespace gq::core

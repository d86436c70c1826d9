// VLAN ID pool (paper §5.2): inmate creation/deletion automatically
// picks and releases IDs from the available pool. IEEE 802.1Q caps the
// space at 4,096 IDs — the first scalability constraint §7.2 discusses.
#pragma once

#include <cstdint>
#include <optional>
#include <set>

namespace gq::obs {
class Gauge;
class MetricsRegistry;
}  // namespace gq::obs

namespace gq::inm {

class VlanPool {
 public:
  /// Pool over [first, last] inclusive.
  VlanPool(std::uint16_t first, std::uint16_t last)
      : first_(first), last_(last) {}

  /// Surface pool occupancy as the farm-wide `inmate.pool.available`
  /// gauge: this pool's current free count is added on bind, and every
  /// allocate/reserve/release afterwards keeps it current. Multiple
  /// pools (one per subfarm) share the one gauge, so the farm value is
  /// total free VLANs across subfarms. Resolve-once at bind: the
  /// registry is never mutated from the data path.
  void bind_metrics(obs::MetricsRegistry& metrics);

  /// Allocate the lowest free ID; nullopt when exhausted.
  std::optional<std::uint16_t> allocate();

  /// Reserve a specific ID; false if taken or out of range.
  bool reserve(std::uint16_t vlan);

  /// Return an ID to the pool (unknown IDs are ignored).
  void release(std::uint16_t vlan);

  [[nodiscard]] std::size_t in_use() const { return in_use_.size(); }
  [[nodiscard]] std::size_t capacity() const {
    return static_cast<std::size_t>(last_ - first_) + 1;
  }
  [[nodiscard]] bool exhausted() const { return in_use() == capacity(); }

 private:
  std::uint16_t first_, last_;
  std::set<std::uint16_t> in_use_;
  obs::Gauge* available_gauge_ = nullptr;
};

}  // namespace gq::inm

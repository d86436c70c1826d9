// Activity triggers (paper §5.4, §6.2): the containment server witnesses
// all network-level activity of an inmate, so it can react to the
// presence — and absence — of flows by terminating, rebooting, or
// reverting the inmate. The configuration grammar is the paper's:
//
//     Trigger = *:25/tcp / 30min < 1 -> revert
//
// meaning "whenever the number of flows matching <any address>:25/tcp
// within a 30-minute window drops below one, revert the inmate."
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "packet/frame.h"
#include "util/addr.h"
#include "util/time.h"

namespace gq::cs {

/// Flow pattern "<addr-glob>:<port|*>/<tcp|udp|*>".
struct FlowPattern {
  std::string addr_glob = "*";
  std::optional<std::uint16_t> port;      // nullopt = any.
  std::optional<pkt::FlowProto> proto;    // nullopt = any.

  [[nodiscard]] bool matches(util::Endpoint dst, pkt::FlowProto p) const;
  static std::optional<FlowPattern> parse(std::string_view text);
  [[nodiscard]] std::string str() const;
};

enum class Comparison { kLess, kLessEqual, kGreater, kGreaterEqual, kEqual };

enum class LifecycleAction { kRevert, kReboot, kTerminate };

const char* lifecycle_action_name(LifecycleAction a);

/// One parsed trigger rule.
struct Trigger {
  FlowPattern pattern;
  util::Duration window{};
  Comparison cmp = Comparison::kLess;
  std::int64_t threshold = 0;
  LifecycleAction action = LifecycleAction::kRevert;

  /// Parse the full "pattern / window cmp count -> action" syntax;
  /// nullopt on malformed input.
  static std::optional<Trigger> parse(std::string_view text);
  [[nodiscard]] std::string str() const;
};

/// Evaluates a set of triggers against per-inmate flow activity. The
/// owner feeds flow observations and inmate (re)start notifications and
/// polls evaluate(); fired triggers are reported once per arming period
/// (firing disarms until the inmate restarts).
class TriggerEngine {
 public:
  struct Firing {
    std::uint16_t vlan;
    LifecycleAction action;
    std::string trigger_text;
  };

  /// Attach a trigger covering VLANs [first, last].
  void add(std::uint16_t vlan_first, std::uint16_t vlan_last,
           Trigger trigger);

  /// Note that an inmate (re)started at `now`: its triggers re-arm and
  /// evaluation is deferred one full window.
  void inmate_started(std::uint16_t vlan, util::TimePoint now);

  /// Record one observed flow from `vlan` to `dst`.
  void observe_flow(std::uint16_t vlan, util::Endpoint dst,
                    pkt::FlowProto proto, util::TimePoint now);

  /// Evaluate all triggers; returns the rules that fired.
  std::vector<Firing> evaluate(util::TimePoint now);

 private:
  struct Rule {
    std::uint16_t vlan_first, vlan_last;
    Trigger trigger;
    // Per-vlan state.
    struct VlanState {
      std::deque<util::TimePoint> events;
      util::TimePoint armed_at{};
      bool armed = false;
      bool fired = false;
    };
    std::map<std::uint16_t, VlanState> per_vlan;
  };

  static bool compare(Comparison cmp, std::int64_t value,
                      std::int64_t threshold);

  std::vector<Rule> rules_;
};

}  // namespace gq::cs

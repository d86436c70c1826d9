// Reporting and monitoring (paper §6.5): the Bro role. The reporter
// taps the gateway's per-flow event stream (the shim-protocol analyzer)
// and the containment server's decision/infection/trigger events, counts
// SMTP sessions from the sinks' events, cross-checks inmate global
// addresses against external blacklists, and renders periodic activity
// reports in the paper's Figure 7 format — broken down by subfarm,
// inmate, and containment decision, so an operator can verify that the
// gateway enforces decisions as expected ("an unusual number of FORWARD
// verdicts might indicate a bug in the policy").
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "extnet/extnet.h"
#include "gateway/router.h"
#include "netsim/event_loop.h"
#include "obs/events.h"
#include "trace/tap.h"

namespace gq::rep {

class Reporter {
 public:
  /// Subscribe this reporter to a farm's event bus; every aggregate the
  /// report renders is then driven by published FarmEvents. core::Farm
  /// calls this once at construction.
  void attach(obs::EventBus& bus);

  /// Central ingestion: one FarmEvent of any kind.
  void on_event(const obs::FarmEvent& event);

  /// Registration for render-time lookups.
  void register_subfarm(gw::SubfarmRouter* subfarm);
  /// Register a gateway trace tap; the report then appends a "Trace
  /// archives" section summarising each tap's retained segments and its
  /// flow index (per-flow verdicts and byte counts).
  void register_trace_tap(const trace::TraceTap* tap);
  void set_blacklist(const ext::Cbl* cbl) { cbl_ = cbl; }

  /// Render the Figure 7 style activity report.
  [[nodiscard]] std::string render(util::TimePoint now) const;

  /// Enable periodic report rotation ("hourly and daily basis").
  void enable_rotation(sim::EventLoop& loop, util::Duration interval);
  [[nodiscard]] const std::vector<std::string>& rotated_reports() const {
    return rotated_;
  }

  // --- Structured access (tests / verification) -----------------------

  /// Flow counts per verdict across the whole farm — the containment
  /// verification signal the paper describes.
  [[nodiscard]] std::map<shim::Verdict, std::uint64_t> verdict_totals()
      const;

  /// Flow count for (subfarm, vlan, verdict, annotation).
  [[nodiscard]] std::uint64_t flows(const std::string& subfarm,
                                    std::uint16_t vlan,
                                    shim::Verdict verdict) const;

  /// Inmate global addresses currently blacklisted (containment-failure
  /// alarm, §7.1 "mysterious blacklisting").
  [[nodiscard]] std::vector<util::Ipv4Addr> blacklisted_inmates() const;

  [[nodiscard]] std::uint64_t trigger_firings() const {
    return trigger_firings_;
  }
  [[nodiscard]] std::uint64_t infections_served() const {
    return infections_;
  }

  /// kJobState transitions observed for (tenant, state name) — e.g.
  /// jobs_observed("acme", "recycled") counts acme's completed
  /// detonation jobs. State names are orch::job_state_name strings.
  [[nodiscard]] std::uint64_t jobs_observed(const std::string& tenant,
                                            const std::string& state) const;

 private:
  struct GroupKey {
    shim::Verdict verdict;
    std::string annotation;
    friend auto operator<=>(const GroupKey&, const GroupKey&) = default;
  };
  struct GroupStats {
    std::uint64_t flows = 0;
    /// How many of `flows` were resolved from the gateway's verdict
    /// cache, and how many from the compiled policy table (the rest
    /// took a containment-server shim round trip).
    std::uint64_t cached = 0;
    std::uint64_t table = 0;
    std::map<util::Endpoint, std::uint64_t> by_target;
  };
  struct InmateReport {
    std::string policy_name;  // Most recent non-default policy.
    std::map<GroupKey, GroupStats> groups;
    std::vector<std::pair<std::string, std::string>> infections;  // name,md5
  };
  struct SubfarmReport {
    std::map<std::uint16_t, InmateReport> inmates;
    std::uint64_t safety_rejections = 0;
  };

  static std::string port_name(std::uint16_t port);

  /// Bus-fed per-inmate SMTP sink stats (kSinkSession / kSinkData from
  /// SMTP-flavoured sink services), keyed subfarm -> internal address.
  struct SmtpStats {
    std::uint64_t sessions = 0;
    std::uint64_t data_transfers = 0;
  };

  std::map<std::string, SubfarmReport> subfarms_;
  std::vector<gw::SubfarmRouter*> routers_;
  std::vector<const trace::TraceTap*> trace_taps_;
  std::map<std::string, std::map<util::Ipv4Addr, SmtpStats>> sink_smtp_;
  const ext::Cbl* cbl_ = nullptr;
  std::vector<std::string> rotated_;
  std::uint64_t trigger_firings_ = 0;
  std::uint64_t infections_ = 0;
  /// Bus-fed detonation-job aggregates (kJobState): tenant -> state
  /// name -> transition count, plus per-tenant harvested byte totals.
  struct TenantJobs {
    std::map<std::string, std::uint64_t> states;
    std::uint64_t bytes_to_server = 0;
    std::uint64_t bytes_to_inmate = 0;
  };
  std::map<std::string, TenantJobs> tenant_jobs_;
};

}  // namespace gq::rep

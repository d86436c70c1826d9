#include "report/reporter.h"

#include <algorithm>

#include "util/strings.h"

namespace gq::rep {

void Reporter::attach(obs::EventBus& bus) {
  bus.subscribe([this](const obs::FarmEvent& event) { on_event(event); });
}

void Reporter::on_event(const obs::FarmEvent& event) {
  switch (event.kind) {
    case obs::FarmEvent::Kind::kSafetyReject:
      ++subfarms_[event.subfarm].safety_rejections;
      return;

    case obs::FarmEvent::Kind::kFlowVerdict: {
      auto& inmate = subfarms_[event.subfarm].inmates[event.vlan];
      if (!event.policy_name.empty() && event.policy_name != "DefaultDeny")
        inmate.policy_name = event.policy_name;
      auto& group =
          inmate.groups[GroupKey{event.verdict, event.annotation}];
      ++group.flows;
      if (event.verdict_source == shim::VerdictSource::kCached)
        ++group.cached;
      else if (event.verdict_source == shim::VerdictSource::kTable)
        ++group.table;
      ++group.by_target[event.orig_dst];
      return;
    }

    case obs::FarmEvent::Kind::kInfectionServed: {
      ++infections_;
      auto& inmate = subfarms_[event.subfarm].inmates[event.vlan];
      inmate.infections.emplace_back(event.sample_name, event.sample_md5);
      return;
    }

    case obs::FarmEvent::Kind::kTriggerFired:
      ++trigger_firings_;
      return;

    case obs::FarmEvent::Kind::kSinkSession:
    case obs::FarmEvent::Kind::kSinkData: {
      // Only SMTP-flavoured sinks feed the per-inmate "SMTP sessions /
      // DATA transfers" report lines.
      if (event.sink_service.find("smtp") == std::string::npos) return;
      auto& stats = sink_smtp_[event.subfarm][event.sink_source.addr];
      if (event.kind == obs::FarmEvent::Kind::kSinkSession)
        ++stats.sessions;
      else
        ++stats.data_transfers;
      return;
    }

    case obs::FarmEvent::Kind::kJobState: {
      auto& tenant = tenant_jobs_[event.tenant];
      ++tenant.states[event.job_state];
      if (event.job_state == "harvested") {
        tenant.bytes_to_server += event.bytes_to_server;
        tenant.bytes_to_inmate += event.bytes_to_inmate;
      }
      return;
    }

    case obs::FarmEvent::Kind::kDhcpBind:
    case obs::FarmEvent::Kind::kFlowOpen:
    case obs::FarmEvent::Kind::kFlowClose:
    case obs::FarmEvent::Kind::kCsDecision:
      // The verdict event carries the facts the report needs, and
      // render() reads inmate addresses from the registered routers.
      return;
  }
}

std::uint64_t Reporter::jobs_observed(const std::string& tenant,
                                      const std::string& state) const {
  auto it = tenant_jobs_.find(tenant);
  if (it == tenant_jobs_.end()) return 0;
  auto st = it->second.states.find(state);
  return st == it->second.states.end() ? 0 : st->second;
}

void Reporter::register_subfarm(gw::SubfarmRouter* subfarm) {
  routers_.push_back(subfarm);
}

void Reporter::register_trace_tap(const trace::TraceTap* tap) {
  trace_taps_.push_back(tap);
}

std::string Reporter::port_name(std::uint16_t port) {
  switch (port) {
    case 25: return "smtp";
    case 80: return "http";
    case 443: return "https";
    case 53: return "dns";
    case 21: return "ftp";
    case 6667: return "irc";
    default: return std::to_string(port);
  }
}

std::string Reporter::render(util::TimePoint now) const {
  std::string out;
  out += "Inmate Activity\n";
  out += "===============\n\n";
  out += util::format("Report time: %s\n\n",
                      util::format_duration(now - util::TimePoint{}).c_str());

  out += "Active subfarms:";
  bool first = true;
  for (const auto& [name, subfarm] : subfarms_) {
    out += (first ? " " : ", ") + name;
    first = false;
  }
  out += "\n";

  for (const auto& [name, subfarm] : subfarms_) {
    out += util::format("\nSubfarm '%s'\n", name.c_str());
    out += std::string(56, '-') + "\n";

    // Resolve the router for address lookups.
    gw::SubfarmRouter* router = nullptr;
    for (auto* candidate : routers_)
      if (candidate->config().name == name) router = candidate;

    for (const auto& [vlan, inmate] : subfarm.inmates) {
      std::string addresses = "-/-";
      util::Ipv4Addr internal_addr;
      if (router) {
        if (const auto* binding = router->inmates().by_vlan(vlan)) {
          addresses = binding->global_addr.str() + "/" +
                      binding->internal_addr.str();
          internal_addr = binding->internal_addr;
        }
      }
      out += util::format(
          "\n%s [%s, VLAN %u]\n",
          inmate.policy_name.empty() ? "(unnamed)"
                                     : inmate.policy_name.c_str(),
          addresses.c_str(), vlan);
      out += std::string(52, '-') + "\n";

      shim::Verdict last_verdict = shim::Verdict::kDrop;
      bool verdict_printed = false;
      for (const auto& [key, stats] : inmate.groups) {
        if (!verdict_printed || key.verdict != last_verdict) {
          out += util::format("%s\n", shim::verdict_name(key.verdict));
          last_verdict = key.verdict;
          verdict_printed = true;
        }
        // Target display: the single target, or a wildcard when spread.
        std::string target = "*.*.*.*";
        std::string port = "?";
        if (!stats.by_target.empty()) {
          port = port_name(stats.by_target.begin()->first.port);
          if (stats.by_target.size() == 1)
            target = stats.by_target.begin()->first.addr.str();
        }
        out += util::format("- %-34s target %-18s %-6s #flows %llu",
                            key.annotation.c_str(), target.c_str(),
                            port.c_str(),
                            static_cast<unsigned long long>(stats.flows));
        if (stats.cached > 0) {
          out += util::format(
              " (%llu cached)",
              static_cast<unsigned long long>(stats.cached));
        }
        if (stats.table > 0) {
          out += util::format(
              " (%llu table)",
              static_cast<unsigned long long>(stats.table));
        }
        out += "\n";
      }
      for (const auto& [sample, md5] : inmate.infections) {
        out += util::format("  autoinfection %s %s\n", md5.c_str(),
                            sample.c_str());
      }
      // SMTP statistics by internal address, from the bus-fed
      // kSinkSession / kSinkData aggregates.
      if (!internal_addr.is_unspecified()) {
        if (auto sf = sink_smtp_.find(name); sf != sink_smtp_.end()) {
          if (auto stats = sf->second.find(internal_addr);
              stats != sf->second.end()) {
            out += util::format(
                "\nSMTP sessions       %llu\nSMTP DATA transfers %llu\n",
                static_cast<unsigned long long>(stats->second.sessions),
                static_cast<unsigned long long>(
                    stats->second.data_transfers));
          }
        }
      }
      // Blacklist verification (§6.5: "we check all global IP addresses
      // currently used by inmates against relevant IP blacklists").
      if (cbl_ && router) {
        if (const auto* binding = router->inmates().by_vlan(vlan)) {
          if (cbl_->is_listed(binding->global_addr)) {
            out += util::format(
                "!! WARNING: inmate global address %s is BLACKLISTED — "
                "possible containment failure\n",
                binding->global_addr.str().c_str());
          }
        }
      }
    }
    if (subfarm.safety_rejections > 0) {
      out += util::format(
          "\nSafety filter rejections: %llu\n",
          static_cast<unsigned long long>(subfarm.safety_rejections));
    }
  }

  if (!tenant_jobs_.empty()) {
    out += "\nDetonation jobs\n";
    out += std::string(56, '=') + "\n";
    for (const auto& [tenant, jobs] : tenant_jobs_) {
      auto count = [&jobs](const char* state) -> unsigned long long {
        auto it = jobs.states.find(state);
        return it == jobs.states.end() ? 0ull : it->second;
      };
      out += util::format(
          "\n%-16s submitted %llu  running %llu  harvested %llu  "
          "recycled %llu  cancelled %llu  rejected %llu\n",
          tenant.c_str(), count("queued"), count("running"),
          count("harvested"), count("recycled"), count("cancelled"),
          count("rejected"));
      out += util::format(
          "  harvested traffic: %llu B to servers, %llu B to inmates\n",
          static_cast<unsigned long long>(jobs.bytes_to_server),
          static_cast<unsigned long long>(jobs.bytes_to_inmate));
    }
  }

  if (!trace_taps_.empty()) {
    out += "\nTrace archives\n";
    out += std::string(56, '=') + "\n";
    for (const auto* tap : trace_taps_) {
      const auto& archive = tap->archive();
      out += util::format(
          "\n%-12s segments %zu  retained %llu pkts / %llu B  "
          "evicted %llu seg / %llu pkts\n",
          tap->name().c_str(), archive.segment_count(),
          static_cast<unsigned long long>(archive.retained_packets()),
          static_cast<unsigned long long>(archive.retained_bytes()),
          static_cast<unsigned long long>(archive.evicted_segments()),
          static_cast<unsigned long long>(archive.evicted_packets()));
      for (const auto& flow : tap->index().flows()) {
        const char* proto =
            flow.key.proto == pkt::FlowProto::kTcp ? "tcp" : "udp";
        std::string verdict = flow.has_verdict
                                  ? shim::verdict_name(flow.verdict)
                                  : std::string("-");
        if (flow.has_verdict) {
          verdict += " [";
          verdict += shim::verdict_source_name(flow.verdict_source);
          verdict += "]";
        }
        out += util::format(
            "  %s %s -> %s vlan %u  %llu pkts / %llu B  %s%s%s\n", proto,
            flow.key.src.str().c_str(), flow.key.dst.str().c_str(),
            flow.vlan, static_cast<unsigned long long>(flow.packets),
            static_cast<unsigned long long>(flow.bytes), verdict.c_str(),
            flow.policy_name.empty() ? "" : " policy ",
            flow.policy_name.c_str());
      }
    }
  }
  return out;
}

void Reporter::enable_rotation(sim::EventLoop& loop,
                               util::Duration interval) {
  loop.schedule_in(interval, [this, &loop, interval] {
    rotated_.push_back(render(loop.now()));
    enable_rotation(loop, interval);
  });
}

std::map<shim::Verdict, std::uint64_t> Reporter::verdict_totals() const {
  std::map<shim::Verdict, std::uint64_t> totals;
  for (const auto& [name, subfarm] : subfarms_) {
    for (const auto& [vlan, inmate] : subfarm.inmates) {
      for (const auto& [key, stats] : inmate.groups)
        totals[key.verdict] += stats.flows;
    }
  }
  return totals;
}

std::uint64_t Reporter::flows(const std::string& subfarm, std::uint16_t vlan,
                              shim::Verdict verdict) const {
  auto subfarm_it = subfarms_.find(subfarm);
  if (subfarm_it == subfarms_.end()) return 0;
  auto inmate_it = subfarm_it->second.inmates.find(vlan);
  if (inmate_it == subfarm_it->second.inmates.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [key, stats] : inmate_it->second.groups)
    if (key.verdict == verdict) total += stats.flows;
  return total;
}

std::vector<util::Ipv4Addr> Reporter::blacklisted_inmates() const {
  std::vector<util::Ipv4Addr> out;
  if (!cbl_) return out;
  for (auto* router : routers_) {
    for (const auto& [vlan, binding] : router->inmates().bindings()) {
      if (cbl_->is_listed(binding.global_addr))
        out.push_back(binding.global_addr);
    }
  }
  return out;
}

}  // namespace gq::rep

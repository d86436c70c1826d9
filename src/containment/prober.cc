#include "containment/prober.h"

#include <map>

#include "util/strings.h"

namespace gq::cs {

PolicyProber::PolicyProber(std::shared_ptr<Policy> policy)
    : policy_(std::move(policy)) {
  // Default matrix: the service ports malware traffic concentrates on,
  // against a spread of outside destinations.
  ports_ = {21, 22, 25, 53, 80, 110, 135, 139, 443, 445, 587,
            1433, 3389, 6667, 8080};
  destinations_ = {
      util::Ipv4Addr(8, 8, 8, 8),        util::Ipv4Addr(64, 12, 88, 7),
      util::Ipv4Addr(91, 207, 6, 10),    util::Ipv4Addr(192, 150, 187, 12),
      util::Ipv4Addr(203, 0, 113, 99),
  };
}

void PolicyProber::expect(const FlowPattern& pattern,
                          std::set<shim::Verdict> allowed,
                          std::string rationale) {
  expectations_.push_back(
      Expectation{pattern, std::move(allowed), std::move(rationale)});
}

void PolicyProber::expect_no_spam_escape() {
  auto smtp = FlowPattern::parse("*:25/tcp");
  expect(*smtp,
         {shim::Verdict::kReflect, shim::Verdict::kDrop,
          shim::Verdict::kRedirect, shim::Verdict::kRewrite},
         "direct SMTP delivery must never leave the farm unfiltered");
  auto submission = FlowPattern::parse("*:587/tcp");
  expect(*submission,
         {shim::Verdict::kReflect, shim::Verdict::kDrop,
          shim::Verdict::kRedirect, shim::Verdict::kRewrite},
         "mail submission must never leave the farm unfiltered");
}

const std::vector<PolicyProber::Probe>& PolicyProber::run(
    std::uint16_t vlan) {
  probes_.clear();
  violations_.clear();
  for (const auto proto : {pkt::FlowProto::kTcp, pkt::FlowProto::kUdp}) {
    for (const auto& dst : destinations_) {
      for (const auto port : ports_) {
        FlowInfo info;
        info.proto = proto;
        info.shim.orig = {util::Ipv4Addr(10, 0, 0, 23), 1234};
        info.shim.resp = {dst, port};
        info.shim.vlan = vlan;
        Probe probe{info, policy_->decide(info)};
        for (const auto& expectation : expectations_) {
          if (expectation.pattern.matches(info.dst(), proto) &&
              !expectation.allowed.count(probe.decision.verdict)) {
            violations_.push_back(Violation{probe, expectation});
          }
        }
        probes_.push_back(std::move(probe));
      }
    }
  }
  return probes_;
}

std::string PolicyProber::render_card() const {
  std::string out;
  out += util::format("Policy test card: %s\n", policy_->name().c_str());
  out += std::string(60, '=') + "\n";

  // Verdict histogram.
  std::map<shim::Verdict, int> histogram;
  for (const auto& probe : probes_) ++histogram[probe.decision.verdict];
  out += "Verdict distribution over the probe matrix:\n";
  for (const auto& [verdict, count] : histogram) {
    out += util::format("  %-9s %4d / %zu\n", shim::verdict_name(verdict),
                        count, probes_.size());
  }

  // Per-port summary (collapsing destinations when uniform).
  out += "\nPer-port decisions (TCP):\n";
  std::map<std::uint16_t, std::set<shim::Verdict>> by_port;
  for (const auto& probe : probes_) {
    if (probe.info.proto == pkt::FlowProto::kTcp)
      by_port[probe.info.dst().port].insert(probe.decision.verdict);
  }
  for (const auto& [port, verdicts] : by_port) {
    std::string names;
    for (auto verdict : verdicts) {
      if (!names.empty()) names += ",";
      names += shim::verdict_name(verdict);
    }
    out += util::format("  port %-5u -> %s\n", port, names.c_str());
  }

  if (violations_.empty()) {
    out += util::format("\nExpectations: %zu declared, 0 violated.\n",
                        expectations_.size());
  } else {
    out += util::format("\n!! %zu EXPECTATION VIOLATIONS:\n",
                        violations_.size());
    for (const auto& violation : violations_) {
      out += util::format(
          "  %s %s -> %s  (violates: %s)\n",
          violation.probe.info.proto == pkt::FlowProto::kTcp ? "tcp" : "udp",
          violation.probe.info.dst().str().c_str(),
          shim::verdict_name(violation.probe.decision.verdict),
          violation.expectation.rationale.c_str());
    }
  }
  return out;
}

}  // namespace gq::cs

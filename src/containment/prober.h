// Policy prober — the paper's §8 future-work item, implemented:
//
//   "a traffic generation tool that can automatically produce test
//    cases for a given concrete containment policy would strengthen
//    confidence in the policy's correctness significantly."
//
// The prober sweeps a policy with synthetic flows over a matrix of
// destinations × ports × protocols, records every decision, checks the
// decisions against declared expectations (e.g. "flows to *:25/tcp must
// never be FORWARDed"), and renders a human-readable test card. It runs
// entirely offline — no farm needed — so a policy can be validated
// before any specimen touches it.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "containment/policy.h"
#include "containment/trigger.h"
#include "shim/shim.h"
#include "util/addr.h"

namespace gq::cs {

class PolicyProber {
 public:
  struct Probe {
    FlowInfo info;
    Decision decision;
  };
  struct Expectation {
    FlowPattern pattern;
    std::set<shim::Verdict> allowed;
    std::string rationale;
  };
  struct Violation {
    Probe probe;
    Expectation expectation;
  };

  explicit PolicyProber(std::shared_ptr<Policy> policy);

  /// Declare a safety expectation: flows matching `pattern` may only
  /// receive verdicts in `allowed`.
  void expect(const FlowPattern& pattern, std::set<shim::Verdict> allowed,
              std::string rationale);

  /// Convenience: the universal harm-prevention expectations — direct
  /// SMTP must never be forwarded, and nothing may be forwarded
  /// unfiltered to arbitrary low ports.
  void expect_no_spam_escape();

  /// Run the sweep for flows from `vlan`; returns all probes.
  const std::vector<Probe>& run(std::uint16_t vlan = 16);

  [[nodiscard]] const std::vector<Probe>& probes() const { return probes_; }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }

  /// Render the decision table + verdict histogram + violations.
  [[nodiscard]] std::string render_card() const;

 private:
  std::shared_ptr<Policy> policy_;
  std::vector<std::uint16_t> ports_;
  std::vector<util::Ipv4Addr> destinations_;
  std::vector<Expectation> expectations_;
  std::vector<Probe> probes_;
  std::vector<Violation> violations_;
};

}  // namespace gq::cs

// Reproduces paper Figure 2: the six flow-manipulation modes, each
// demonstrated end-to-end on a live flow. For every verdict we run one
// inmate-initiated HTTP flow and report what each party observed — the
// inmate, the true destination, and the sink — which is exactly the
// semantics the figure illustrates. Exits 1, naming the row on stderr,
// when any row breaks the shape EXPERIMENTS.md states for it.
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "containment/handlers.h"
#include "containment/policies.h"
#include "core/farm.h"
#include "services/http.h"
#include "util/strings.h"

namespace {

using namespace gq;
using util::Ipv4Addr;

constexpr const char* kAltContent = "redirected-target-content";

struct Outcome {
  bool inmate_got_answer = false;
  std::string inmate_answer;
  bool inmate_reset = false;
  int server_requests = 0;
  int sink_flows = 0;
  double elapsed_s = 0;
};

class OneVerdictPolicy : public cs::Policy {
 public:
  OneVerdictPolicy(shim::Verdict verdict, util::Endpoint sink,
                   util::Endpoint redirect)
      : Policy("Fig2"), verdict_(verdict), sink_(sink), redirect_(redirect) {}
  cs::Decision decide(const cs::FlowInfo&) override {
    switch (verdict_) {
      case shim::Verdict::kForward: return cs::Decision::forward();
      case shim::Verdict::kLimit: return cs::Decision::limit(512);
      case shim::Verdict::kDrop: return cs::Decision::drop();
      case shim::Verdict::kRedirect: return cs::Decision::redirect(redirect_);
      case shim::Verdict::kReflect: return cs::Decision::reflect(sink_);
      case shim::Verdict::kRewrite: return cs::Decision::rewrite();
    }
    return cs::Decision::drop();
  }
  std::unique_ptr<cs::RewriteHandler> make_rewrite_handler(
      const cs::FlowInfo&) override {
    // The Figure 5 flavour: rewrite the path out, the status back.
    return std::make_unique<cs::HttpFilterHandler>(
        [](svc::HttpRequest request) -> std::optional<svc::HttpRequest> {
          request.path = "/cleanup.exe";
          return request;
        },
        [](svc::HttpResponse response) {
          if (response.status == 200)
            return svc::HttpResponse::make(404, "NOT FOUND", "");
          return response;
        });
  }

 private:
  shim::Verdict verdict_;
  util::Endpoint sink_, redirect_;
};

Outcome run_verdict(shim::Verdict verdict) {
  core::Farm farm;
  Outcome outcome;

  auto& web = farm.add_external_host("web", Ipv4Addr(192, 150, 187, 12));
  svc::HttpServer httpd(web, 80,
                        [&](const svc::HttpRequest&, util::Endpoint) {
                          ++outcome.server_requests;
                          return svc::HttpResponse::make(
                              200, "OK", std::string(4096, 'B'));
                        });
  auto& alt = farm.add_external_host("alt", Ipv4Addr(198, 51, 100, 5));
  svc::HttpServer alt_httpd(alt, 80,
                            [&](const svc::HttpRequest&, util::Endpoint) {
                              return svc::HttpResponse::make(200, "OK",
                                                             kAltContent);
                            });

  auto& sub = farm.add_subfarm("Fig2");
  auto& sink = sub.add_catchall_sink();
  sub.containment().bind_policy(
      16, 31, std::make_shared<OneVerdictPolicy>(
                  verdict, sub.policy_env().service("sink"),
                  util::Endpoint{Ipv4Addr(198, 51, 100, 5), 80}));

  auto& inmate = sub.create_inmate(inm::HostingKind::kVm);
  farm.run_for(util::minutes(1));  // Boot.

  const auto start = farm.loop().now();
  svc::HttpRequest request;
  request.path = "/bot.exe";
  svc::HttpClient::fetch(inmate.host(), {Ipv4Addr(192, 150, 187, 12), 80},
                         request,
                         [&](std::optional<svc::HttpResponse> response) {
                           if (response) {
                             outcome.inmate_got_answer = true;
                             outcome.inmate_answer = util::format(
                                 "%d (%zu B)", response->status,
                                 response->body.size());
                             outcome.elapsed_s =
                                 (farm.loop().now() - start).seconds_f();
                           } else {
                             outcome.inmate_reset = true;
                           }
                         });
  farm.run_for(util::minutes(2));
  outcome.sink_flows = static_cast<int>(sink.tcp_flows());
  return outcome;
}

// Why `outcome` breaks the row shape EXPERIMENTS.md states for
// `verdict` (nullptr when it holds). `forward` is the FORWARD row, which
// LIMIT must be slower than.
const char* shape_violation(shim::Verdict verdict, const Outcome& outcome,
                            const Outcome& forward) {
  const bool target_hit = outcome.server_requests > 0;
  const bool full_answer = outcome.inmate_answer == "200 (4096 B)";
  switch (verdict) {
    case shim::Verdict::kForward:
      if (!full_answer || !target_hit)
        return "expected 200 (4096 B) from the target";
      break;
    case shim::Verdict::kLimit:
      if (!full_answer || !target_hit)
        return "expected 200 (4096 B) from the target";
      if (outcome.elapsed_s <= forward.elapsed_s)
        return "expected a slower answer than FORWARD";
      break;
    case shim::Verdict::kDrop:
      if (!outcome.inmate_reset || target_hit)
        return "expected a refused connection and no target contact";
      break;
    case shim::Verdict::kRedirect:
      if (outcome.inmate_answer !=
              util::format("200 (%zu B)", std::strlen(kAltContent)) ||
          target_hit)
        return "expected the alternate target's answer and no target "
               "contact";
      break;
    case shim::Verdict::kReflect:
      if (outcome.inmate_got_answer || target_hit || outcome.sink_flows != 1)
        return "expected no answer, no target contact and one sink flow";
      break;
    case shim::Verdict::kRewrite:
      if (!target_hit || outcome.inmate_answer.rfind("404 ", 0) != 0)
        return "expected target contact and a rewritten 404";
      break;
  }
  return nullptr;
}

}  // namespace

int main() {
  std::printf("Figure 2 reproduction: flow manipulation modes\n");
  std::printf("(inmate fetches http://192.150.187.12/bot.exe; 4 KB answer)\n\n");
  std::printf("%-9s %-22s %-10s %-6s %-10s\n", "VERDICT", "INMATE SAW",
              "TARGET HIT", "SINK", "ELAPSED");
  std::printf("%s\n", std::string(64, '-').c_str());
  std::vector<std::pair<shim::Verdict, Outcome>> rows;
  for (auto verdict :
       {shim::Verdict::kForward, shim::Verdict::kLimit, shim::Verdict::kDrop,
        shim::Verdict::kRedirect, shim::Verdict::kReflect,
        shim::Verdict::kRewrite}) {
    const Outcome& outcome =
        rows.emplace_back(verdict, run_verdict(verdict)).second;
    // A failed fetch is a refusal, except under REFLECT: the sink
    // accepts the connection and never answers, so the inmate hears
    // silence until its client gives up.
    std::string saw = outcome.inmate_reset
                          ? (verdict == shim::Verdict::kReflect
                                 ? "silence"
                                 : "connection refused")
                      : outcome.inmate_got_answer ? outcome.inmate_answer
                                                  : "nothing (hang)";
    std::printf("%-9s %-22s %-10s %-6d %8.2fs\n",
                shim::verdict_name(verdict), saw.c_str(),
                outcome.server_requests > 0 ? "yes" : "no",
                outcome.sink_flows, outcome.elapsed_s);
  }
  std::printf("%s\n", std::string(64, '-').c_str());
  std::printf(
      "Expected shape: FORWARD/LIMIT reach the target (LIMIT slower);\n"
      "DROP is refused; REDIRECT answers from the alternate target;\n"
      "REFLECT lands in the sink (no answer, no target contact);\n"
      "REWRITE reaches the target but the inmate sees the rewritten "
      "404.\n");
  int broken = 0;
  for (const auto& [verdict, outcome] : rows) {
    if (const char* why =
            shape_violation(verdict, outcome, rows.front().second)) {
      std::fprintf(stderr, "fig2: %s row breaks the expected shape: %s\n",
                   shim::verdict_name(verdict), why);
      ++broken;
    }
  }
  return broken == 0 ? 0 : 1;
}

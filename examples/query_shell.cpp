// An ERAM-style shell: type relational-algebra queries (the prototype's
// query language) and get time-constrained COUNT estimates. Preloaded
// relations: r1, r2 (the paper's 10,000-tuple geometry, 5,000 common
// tuples). Commands:
//
//   \quota <seconds>     set the time quota        (default 5.0)
//   \dbeta <value>       set the risk margin d_β   (default 24)
//   \exact               also compute the exact answer for comparison
//   \explain <query>     EXPLAIN: print the planned stages without running
//   \save <dir>          persist the catalog (one .tcq file per relation)
//   \load <dir>          replace the catalog from .tcq files
//   \help                this text
//   \quit                exit
//   <query>              e.g.  SELECT[key < 2000](r1)
//                              JOIN[key = key](r1, r2)
//                              r1 UNION r2
//
// When stdin is not a terminal the shell runs a scripted demo.
//
//   ./build/examples/query_shell

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "api/tcq.h"
#include "exec/exact.h"
#include "ra/parser.h"
#include "storage/page_codec.h"
#include "workload/generators.h"

namespace {

using namespace tcq;

void RunQuery(const std::string& text, Session* session, double quota_s,
              double d_beta, bool with_exact, uint64_t* seed) {
  auto r = session->Query(text)
               .WithQuota(quota_s)
               .WithRiskMargin(d_beta)
               .WithSeed((*seed)++)
               .Run();
  if (!r.ok()) {
    std::printf("  error: %s\n", r.status().ToString().c_str());
    return;
  }
  // std::min is a display clamp only: r->utilization carries the true
  // ratio and exceeds 1 after a soft-deadline overrun.
  std::printf(
      "  estimate %.1f   95%% CI [%.1f, %.1f]   %d stages, %lld blocks, "
      "%.2f s of %.2f s (%.0f%% used)%s\n",
      r->estimate, r->ci.lo, r->ci.hi, r->stages_counted,
      static_cast<long long>(r->blocks_sampled), r->elapsed_seconds,
      quota_s, 100.0 * std::min(1.0, r->utilization),
      r->stop_reason == StopReason::kStageOverran ? " (last stage aborted)"
                                                  : "");
  if (with_exact) {
    auto expr = ParseQuery(text);
    if (!expr.ok()) return;
    auto exact = ExactCount(*expr, session->catalog());
    if (exact.ok()) {
      std::printf("  exact    %lld\n", static_cast<long long>(*exact));
    }
  }
}

void ExplainQuery(const std::string& text, Session* session, double quota_s,
                  double d_beta) {
  auto plan = session->Query(text)
                  .WithQuota(quota_s)
                  .WithRiskMargin(d_beta)
                  .Explain();
  if (!plan.ok()) {
    std::printf("  error: %s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("%s", plan->ToString().c_str());
}

}  // namespace

int main() {
  auto workload = MakeIntersectionWorkload(5000, /*seed=*/12);
  if (!workload.ok()) return 1;
  Session session(std::move(workload->catalog));

  double quota_s = 5.0;
  double d_beta = 24.0;
  bool with_exact = false;
  uint64_t seed = 1;

  const bool interactive = isatty(fileno(stdin)) != 0;
  std::printf(
      "tcq shell — relations: r1, r2 (10,000 tuples each, 5,000 common). "
      "\\help for help.\n");

  std::istringstream demo(
      "SELECT[key < 2000](r1)\n"
      "\\explain r1 INTERSECT r2\n"
      "\\exact\n"
      "JOIN[key = key](r1, r2)\n"
      "r1 INTERSECT r2\n"
      "\\quota 20\n"
      "r1 UNION r2\n"
      "PROJECT[key](SELECT[key < 100](r1))\n"
      "\\quit\n");
  std::istream& in = interactive ? std::cin : demo;

  std::string line;
  while (true) {
    std::printf("tcq> ");
    std::fflush(stdout);
    if (!std::getline(in, line)) break;
    if (!interactive) std::printf("%s\n", line.c_str());
    // Trim.
    size_t a = line.find_first_not_of(" \t");
    if (a == std::string::npos) continue;
    size_t b = line.find_last_not_of(" \t");
    line = line.substr(a, b - a + 1);
    if (line.empty()) continue;

    if (line[0] == '\\') {
      std::istringstream cmd(line.substr(1));
      std::string name;
      cmd >> name;
      if (name == "quit" || name == "q") break;
      if (name == "quota") {
        cmd >> quota_s;
        std::printf("  quota = %.2f s\n", quota_s);
      } else if (name == "dbeta") {
        cmd >> d_beta;
        std::printf("  d_beta = %.0f\n", d_beta);
      } else if (name == "explain") {
        std::string rest;
        std::getline(cmd, rest);
        size_t q = rest.find_first_not_of(" \t");
        if (q == std::string::npos) {
          std::printf("  usage: \\explain <query>\n");
        } else {
          ExplainQuery(rest.substr(q), &session, quota_s, d_beta);
        }
      } else if (name == "exact") {
        with_exact = !with_exact;
        std::printf("  exact comparison %s\n", with_exact ? "on" : "off");
      } else if (name == "save") {
        std::string dir;
        cmd >> dir;
        Status s = SaveCatalog(session.catalog(), dir);
        std::printf("  %s\n", s.ok() ? ("saved to " + dir).c_str()
                                      : s.ToString().c_str());
      } else if (name == "load") {
        std::string dir;
        cmd >> dir;
        auto loaded = LoadCatalog(dir);
        if (loaded.ok()) {
          session.ResetCatalog(std::move(*loaded));
          std::printf("  loaded %zu relations\n",
                      session.catalog().Names().size());
        } else {
          std::printf("  %s\n", loaded.status().ToString().c_str());
        }
      } else if (name == "help") {
        std::printf(
            "  \\quota <s>, \\dbeta <v>, \\exact, \\explain <query>, "
            "\\save <dir>, "
            "\\load <dir>, \\quit; otherwise type "
            "an RA query\n  (SELECT[pred](e), PROJECT[cols](e), "
            "JOIN[a=b](e,e), UNION/INTERSECT/MINUS)\n");
      } else {
        std::printf("  unknown command \\%s\n", name.c_str());
      }
      continue;
    }
    RunQuery(line, &session, quota_s, d_beta, with_exact, &seed);
  }
  std::printf("\n");
  return 0;
}

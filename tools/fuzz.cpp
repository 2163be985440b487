// cen fuzz — fuzz a blocked connection against a built-in scenario.
//
// Picks the first test domain and endpoint unless told otherwise; prints a
// per-strategy summary, permutation detail for evading probes, or JSONL.
#include "cli.hpp"

using namespace cen;
using namespace cli;

int cli::run_fuzz(const Context& ctx) {
  const Args& args = ctx.args;
  scenario::CountryScenario s = make_site(ctx);
  const std::string domain = args.get("domain", s.http_test_domains.front());

  fuzz::FuzzRunOptions ropts;
  ropts.client = s.remote_client;
  ropts.endpoint = select_endpoint(ctx, s);
  ropts.test_domain = domain;
  ropts.control_domain = s.control_domain;
  ropts.fuzz.retries = args.value("retries", ropts.fuzz.retries);
  ropts.seed = ctx.common.seed;
  const fuzz::CenFuzzReport report = fuzz::run(*s.network, ropts, ctx.observer);

  if (ctx.common.json) {
    std::printf("%s\n", report::to_json(report).c_str());
    return kExitOk;
  }

  std::printf("endpoint %s, test domain %s\n", report.endpoint.str().c_str(),
              domain.c_str());
  std::printf("baseline blocked: http=%s tls=%s (%zu requests total)\n",
              report.http_baseline_blocked ? "yes" : "no",
              report.tls_baseline_blocked ? "yes" : "no", report.total_requests);
  if (!report.http_baseline_blocked && !report.tls_baseline_blocked) {
    std::printf("nothing to fuzz: the Normal request is not blocked.\n");
    return kExitOk;
  }

  std::map<std::string, std::array<int, 3>> per_strategy;  // succ / fail / untestable
  for (const fuzz::FuzzMeasurement& m : report.measurements) {
    auto& row = per_strategy[m.strategy];
    switch (m.outcome) {
      case fuzz::FuzzOutcome::kSuccessful: ++row[0]; break;
      case fuzz::FuzzOutcome::kNotSuccessful: ++row[1]; break;
      case fuzz::FuzzOutcome::kUntestable: ++row[2]; break;
    }
    if (args.has("successful-only") && m.outcome == fuzz::FuzzOutcome::kSuccessful) {
      std::printf("  evades: %-24s %s%s\n", m.strategy.c_str(), m.permutation.c_str(),
                  m.circumvented ? "  [circumvents]" : "");
    }
  }
  if (!args.has("successful-only")) {
    std::printf("%-26s %6s %6s %6s\n", "strategy", "evade", "block", "n/a");
    for (const auto& [strategy, row] : per_strategy) {
      std::printf("%-26s %6d %6d %6d\n", strategy.c_str(), row[0], row[1], row[2]);
    }
  }
  return kExitOk;
}

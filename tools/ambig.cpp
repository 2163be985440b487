// cen ambig — fingerprint a DPI device by its reassembly ambiguities.
//
// Country mode probes one blocked endpoint of a built-in scenario and
// prints the per-probe discrepancy table (or JSON). --vendor-lab runs
// the seeded three-vendor laboratory (identical rules, distinct
// ReassemblyQuirks) and prints every deployment's discrepancy vector —
// the banner-free vendor signal.
#include "cli.hpp"
#include "scenario/ambig.hpp"

using namespace cen;
using namespace cli;

namespace {

void print_report(const ambig::AmbigReport& report) {
  std::printf("endpoint %s, test domain %s (distance %d, insertion ttl %d)\n",
              report.endpoint.str().c_str(), report.test_domain.c_str(),
              report.endpoint_distance, report.insertion_ttl);
  std::printf("baseline blocked: %s (%zu probes total)\n",
              report.baseline_blocked ? "yes" : "no", report.total_probes_sent);
  std::printf("%-20s %10s %10s %6s\n", "probe", "test", "control", "bit");
  for (const ambig::AmbigProbeResult& p : report.probes) {
    const char* bit = !p.testable ? "n/a" : (p.discrepant ? "1" : "0");
    std::printf("%-20s %10s %10s %6s\n", std::string(p.name).c_str(),
                std::string(ambig::probe_outcome_name(p.test_outcome)).c_str(),
                std::string(ambig::probe_outcome_name(p.control_outcome)).c_str(), bit);
  }
}

/// The run options every probed endpoint shares.
ambig::AmbigRunOptions run_options(const Context& ctx, sim::NodeId client,
                                   std::string control_domain) {
  ambig::AmbigRunOptions ropts;
  ropts.client = client;
  ropts.control_domain = std::move(control_domain);
  ropts.seed = ctx.common.seed;
  ropts.ambig.retries = ctx.args.value("retries", ropts.ambig.retries);
  ropts.ambig.retry_backoff = ctx.args.value("backoff", ropts.ambig.retry_backoff);
  ctx.args.apply(ropts.ambig, "ambig.");
  return ropts;
}

}  // namespace

int cli::run_ambig(const Context& ctx) {
  const Args& args = ctx.args;
  if (args.has("vendor-lab")) {
    scenario::AmbigScenarioOptions sopts;
    sopts.deployments_per_vendor = args.value("per-vendor", 2);
    scenario::AmbigScenario s = scenario::make_ambig(sopts);
    s.network->set_fault_plan(ctx.common.faults);

    ambig::AmbigRunOptions ropts = run_options(ctx, s.client, s.control_domain);
    ropts.test_domain = s.test_domain;
    bool first = true;
    for (const scenario::AmbigDeployment& d : s.deployments) {
      ropts.endpoint = d.endpoint;
      const ambig::AmbigReport report = ambig::run(*s.network, ropts, ctx.observer);
      if (ctx.common.json) {
        std::printf("%s\n", report::to_json(report).c_str());
        continue;
      }
      if (!first) std::printf("\n");
      first = false;
      std::printf("== %s (%s) ==\n", d.device_id.c_str(), d.vendor.c_str());
      print_report(report);
    }
    return kExitOk;
  }

  scenario::CountryScenario s = make_site(ctx);
  ambig::AmbigRunOptions ropts = run_options(ctx, s.remote_client, s.control_domain);
  ropts.endpoint = select_endpoint(ctx, s);
  ropts.test_domain = args.get("domain", s.http_test_domains.front());
  const ambig::AmbigReport report = ambig::run(*s.network, ropts, ctx.observer);
  if (ctx.common.json) {
    std::printf("%s\n", report::to_json(report).c_str());
  } else {
    print_report(report);
  }
  return kExitOk;
}

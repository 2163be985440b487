// cen campaign — run a declarative, paper-scale measurement campaign with
// the incremental result cache and crash-safe resume.
//
// The spec file (schema: docs/CAMPAIGN.md) fully describes the campaign;
// each config flag (a row with a key path, tools/cen.cpp) overrides the
// field it names. --cache names the JSONL result cache: a re-run executes
// only tasks whose inputs changed, and a run killed mid-campaign (or
// stopped by --max-batches, exit 3) resumes from the last completed batch
// with byte-identical final output.
#include "cli.hpp"
#include "worldgen/spec.hpp"

using namespace cen;
using namespace cli;

campaign::CampaignSpec cli::campaign_spec(const Context& ctx) {
  campaign::CampaignSpec spec;
  if (ctx.args.has("spec")) spec = load_spec(ctx.args.get("spec"), campaign::spec_from_json);
  ctx.args.apply(spec);
  std::string error;
  if (!campaign::check_spec(spec, &error)) throw UsageError(error);
  return spec;
}

campaign::RunControl cli::run_control(const Context& ctx) {
  campaign::RunControl control;
  control.threads = ctx.common.threads;
  control.cache_path = ctx.args.get("cache");
  control.max_batches = ctx.args.value("max-batches", -1);
  control.observer = ctx.observer;
  return control;
}

int cli::run_campaign(const Context& ctx) {
  const Args& args = ctx.args;
  campaign::CampaignSpec spec = campaign_spec(ctx);
  if (args.has("world")) {
    // Synthetic-world campaign: a built-in tier name or a WorldSpec file.
    spec.world = worldgen::WorldSpec::tier(args.get("world"));
    if (!spec.world) spec.world = load_spec(args.get("world"), worldgen::spec_from_json);
  }

  const campaign::CampaignResult result = campaign::run(spec, run_control(ctx));

  int rc = kExitOk;
  if (args.has("out") && !write_file(args.get("out"), result.to_jsonl())) rc = kExitRuntime;
  if (args.has("summary") && !write_file(args.get("summary"), result.summary_json())) {
    rc = kExitRuntime;
  }
  if (ctx.common.json) {
    std::printf("%s", result.to_jsonl().c_str());
    std::printf("%s\n", result.summary_json().c_str());
  } else {
    std::printf("campaign '%s' (%s): %zu trace / %zu probe / %zu fuzz / %zu ambig tasks\n",
                result.name.c_str(), join(result.countries, ",").c_str(),
                result.trace.tasks, result.probe.tasks, result.fuzz.tasks,
                result.ambig.tasks);
    std::printf("  executed %zu, cache hits %zu; %zu blocked endpoints, "
                "%zu measurements, %d clusters (%zu noise)\n",
                result.tool_tasks_executed(), result.cache_hits(),
                result.blocked_endpoints, result.measurements.size(),
                result.n_clusters, result.noise_rows);
    if (!result.complete) {
      std::printf("  INCOMPLETE: batch budget exhausted — re-run with the same "
                  "--cache to resume\n");
    }
  }
  if (rc != kExitOk) return rc;
  return result.complete ? kExitOk : kExitIncomplete;
}

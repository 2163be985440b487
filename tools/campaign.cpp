// cen campaign — run a declarative, paper-scale measurement campaign with
// the incremental result cache and crash-safe resume.
//
// The spec file (schema: docs/CAMPAIGN.md) fully describes the campaign;
// every flag overrides the corresponding spec field. --cache names the
// JSONL result cache: re-running with the same cache executes only tasks
// whose inputs changed, and a run killed mid-campaign (or stopped by
// --max-batches) resumes from the last completed batch with
// byte-identical final output.
//
// Exit codes: 0 complete, 1 I/O failure, 2 usage error, 3 incomplete
// (batch budget exhausted — run again with the same --cache to continue).
#include "cli.hpp"
#include "worldgen/spec.hpp"

using namespace cen;
using namespace cli;

campaign::CampaignSpec cli::campaign_spec(const Context& ctx) {
  const Args& args = ctx.args;
  campaign::CampaignSpec spec;
  if (args.has("spec")) {
    std::string error;
    auto loaded = campaign::load_spec_file(args.get("spec"), &error);
    if (!loaded) throw UsageError("bad spec " + args.get("spec") + ": " + error);
    spec = std::move(*loaded);
  }
  if (args.has("countries")) {
    spec.countries.clear();
    for (const std::string& code : split(args.get("countries"), ',')) {
      spec.countries.push_back(parse_country(code));
    }
  }
  if (args.has("scale")) spec.scale = ctx.common.scale;
  spec.seed = args.get_u64("seed", spec.seed);
  spec.max_endpoints = args.get_int("max-endpoints", spec.max_endpoints);
  spec.max_domains = args.get_int("max-domains", spec.max_domains);
  spec.fuzz_max_endpoints = args.get_int("fuzz-cap", spec.fuzz_max_endpoints);
  spec.trace.repetitions = args.get_int("reps", spec.trace.repetitions);
  spec.batch_size = args.get_int("batch", spec.batch_size);
  if (spec.batch_size < 1) throw UsageError("--batch must be >= 1");
  if (has_fault_flags(args)) spec.faults = ctx.common.faults;
  return spec;
}

campaign::RunControl cli::run_control(const Context& ctx) {
  campaign::RunControl control;
  control.threads = ctx.common.threads;
  control.cache_path = ctx.args.get("cache");
  control.max_batches = ctx.args.get_int("max-batches", -1);
  control.observer = ctx.observer;
  return control;
}

int cli::run_campaign(const Context& ctx) {
  const Args& args = ctx.args;
  const std::string out = args.output_path("out");
  const std::string summary = args.output_path("summary");
  campaign::CampaignSpec spec = campaign_spec(ctx);
  if (args.has("world")) {
    // Synthetic-world campaign: a built-in tier name or a WorldSpec file.
    const std::string arg = args.get("world");
    std::optional<worldgen::WorldSpec> world = worldgen::WorldSpec::tier(arg);
    if (!world) {
      std::string error;
      world = worldgen::load_spec_file(arg, &error);
      if (!world) {
        throw UsageError("bad --world '" + arg +
                         "': not a built-in tier (1k, 100k, 1m) and not a spec file: " +
                         error);
      }
    }
    spec.world = std::move(*world);
  }
  if (args.has("ambig")) spec.stages.ambig = true;
  spec.ambig_max_endpoints = args.get_int("ambig-cap", spec.ambig_max_endpoints);
  spec.ambig.repetitions = args.get_int("ambig-reps", spec.ambig.repetitions);
  if (args.has("tomography")) spec.trace_tomography = true;
  spec.trace_vantages = args.get_int("vantages", spec.trace_vantages);
  if (ctx.common.run.backoff) spec.trace.retry_backoff = *ctx.common.run.backoff;
  if (ctx.common.run.retries) spec.trace.adaptive_max_retries = *ctx.common.run.retries;

  const campaign::CampaignResult result = campaign::run(spec, run_control(ctx));

  int rc = kExitOk;
  if (!out.empty() && !write_file(out, result.to_jsonl())) rc = kExitRuntime;
  if (!summary.empty() && !write_file(summary, result.summary_json())) rc = kExitRuntime;
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

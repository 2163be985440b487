// cen longit — longitudinal measurement service: re-run a campaign
// across N epochs with a seeded censor-evolution plan applied between
// epochs, and report the per-epoch differentials.
//
// The spec file is a campaign spec (docs/CAMPAIGN.md) whose optional
// "evolution" object describes the churn; the --evolve-* flags override
// it (and enable evolution when the spec has none). All epochs share the
// --cache JSONL file, so an unchurned epoch is pure cache hits and a run
// killed mid-epoch resumes from the last completed batch. --max-batches
// is a per-epoch budget.
//
// Exit codes: 0 complete, 1 I/O failure, 2 usage error, 3 incomplete
// (batch budget exhausted — run again with the same --cache to continue).
#include "cli.hpp"
#include "longit/longit.hpp"

using namespace cen;
using namespace cli;

int cli::run_longit(const Context& ctx) {
  const Args& args = ctx.args;
  const std::string out = args.output_path("out");
  longit::LongitSpec spec;
  spec.base = campaign_spec(ctx);
  spec.epochs = args.get_int("epochs", spec.epochs);
  if (spec.epochs < 1) throw UsageError("--epochs must be >= 1");
  if (args.has("no-churn")) spec.collect_churn = false;

  // Evolution overrides: start from the spec's plan (or a fresh one) and
  // apply any --evolve-* flags on top.
  const bool evolve_flags =
      args.has("evolve-seed") || args.has("evolve-start") ||
      args.has("evolve-period") || args.has("evolve-add") ||
      args.has("evolve-remove") || args.has("evolve-upgrade") ||
      args.has("evolve-swap") || args.has("evolve-drift");
  if (evolve_flags) {
    longit::EvolutionPlan plan =
        spec.base.evolution ? *spec.base.evolution : longit::EvolutionPlan{};
    plan.seed = args.get_u64("evolve-seed", plan.seed);
    plan.start_epoch = args.get_int("evolve-start", plan.start_epoch);
    plan.period = args.get_int("evolve-period", plan.period);
    plan.rule_add_prob = args.get_double("evolve-add", plan.rule_add_prob);
    plan.rule_remove_prob = args.get_double("evolve-remove", plan.rule_remove_prob);
    plan.vendor_upgrade_prob = args.get_double("evolve-upgrade", plan.vendor_upgrade_prob);
    plan.blockpage_swap_prob = args.get_double("evolve-swap", plan.blockpage_swap_prob);
    plan.coverage_drift_prob = args.get_double("evolve-drift", plan.coverage_drift_prob);
    for (double p : {plan.rule_add_prob, plan.rule_remove_prob,
                     plan.vendor_upgrade_prob, plan.blockpage_swap_prob,
                     plan.coverage_drift_prob}) {
      if (!(p >= 0.0 && p <= 1.0)) {
        throw UsageError("--evolve-* probabilities must be in [0, 1]");
      }
    }
    spec.base.evolution = std::move(plan);
  }

  const longit::LongitResult result = longit::run(spec, run_control(ctx));

  int rc = kExitOk;
  if (!out.empty() && !write_file(out, result.to_json())) rc = kExitRuntime;
  if (ctx.common.json) {
    std::printf("%s\n", result.to_json().c_str());
  } else {
    std::printf("longit '%s': %d/%d epochs\n", result.name.c_str(),
                result.epochs_completed, spec.epochs);
    for (const longit::EpochSummary& e : result.epochs) {
      std::printf("  epoch %d: %zu records (%zu blocked), executed %zu, "
                  "cache hits %zu; +%zu blocked, -%zu unblocked, "
                  "%zu vendor changes, %zu moves\n",
                  e.epoch, e.records, e.blocked, e.executed, e.cache_hits,
                  e.diff.newly_blocked.size(), e.diff.newly_unblocked.size(),
                  e.diff.vendor_changes.size(), e.diff.location_moves.size());
    }
    if (result.hop_ttl.count() > 0) {
      std::printf("  blocking-hop TTL p50/p90/p99: %llu/%llu/%llu (%llu samples)\n",
                  static_cast<unsigned long long>(result.hop_ttl.query(50)),
                  static_cast<unsigned long long>(result.hop_ttl.query(90)),
                  static_cast<unsigned long long>(result.hop_ttl.query(99)),
                  static_cast<unsigned long long>(result.hop_ttl.count()));
    }
    if (!result.complete) {
      std::printf("  INCOMPLETE: batch budget exhausted — re-run with the same "
                  "--cache to resume\n");
    }
  }
  if (rc != kExitOk) return rc;
  return result.complete ? kExitOk : kExitIncomplete;
}

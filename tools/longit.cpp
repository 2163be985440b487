// cen longit — longitudinal measurement service: re-run a campaign
// across N epochs with a seeded censor-evolution plan applied between
// epochs, and report the per-epoch differentials.
//
// The spec file is a campaign spec (docs/CAMPAIGN.md) whose optional
// "evolution" object describes the churn; the --evolve-* rows override its
// fields (and create the plan when the spec has none). All epochs share the
// --cache JSONL file, so an unchurned epoch is pure cache hits and a run
// killed mid-epoch resumes from the last completed batch. --max-batches
// is a per-epoch budget (exit 3 when it runs out).
#include "cli.hpp"
#include "longit/longit.hpp"

using namespace cen;
using namespace cli;

int cli::run_longit(const Context& ctx) {
  const Args& args = ctx.args;
  longit::LongitSpec spec;
  spec.base = campaign_spec(ctx);
  spec.epochs = args.value("epochs", spec.epochs);
  if (spec.epochs < 1) throw UsageError("--epochs must be >= 1");
  if (args.has("no-churn")) spec.collect_churn = false;

  const longit::LongitResult result = longit::run(spec, run_control(ctx));

  int rc = kExitOk;
  if (args.has("out") && !write_file(args.get("out"), result.to_json())) rc = kExitRuntime;
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

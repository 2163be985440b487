// cen check — the deterministic self-check harness: differential fuzzing
// and invariant checking of the codebase against itself.
//
// Every failure prints a one-line `cen check --engine E --seed N` command
// that replays exactly that case. --threads changes wall time only,
// never output: -1 (the default) is one worker per hardware thread, and
// 0 (inline) and 1 both run one worker.
//
// Exit codes: 0 all checks passed, 1 failures found, 2 usage error.
#include <algorithm>

#include "check/check.hpp"
#include "cli.hpp"

using namespace cen;
using namespace cli;

int cli::run_check(const Context& ctx) {
  const Args& args = ctx.args;
  const std::string out = args.output_path("out");
  check::CheckOptions options;
  if (args.has("engine")) {
    for (const std::string& name : split(args.get("engine"), ',')) {
      const auto engine = check::engine_from_name(name);
      if (!engine.has_value()) throw UsageError("unknown engine '" + name + "'");
      options.engines.push_back(*engine);
    }
  }
  const int iterations = args.get_int("iterations", 1000);
  const int budget = args.get_int("budget", 8);
  if (iterations < 1 || budget < 1) throw UsageError("--iterations and --budget must be >= 1");
  options.iterations = static_cast<std::uint64_t>(iterations);
  options.seed = args.get_u64("seed", 1);
  options.mutation_budget = budget;
  options.minimize = !args.has("no-minimize");
  // CheckOptions::threads counts workers, with 0 meaning the hardware's.
  options.threads = ctx.common.threads < 0 ? 0 : std::max(ctx.common.threads, 1);

  const check::CheckReport report = check::run_checks(options);
  if (!out.empty() && !write_file(out, report.to_json())) return kExitRuntime;
  if (ctx.common.json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::fputs(report.summary().c_str(), stdout);
  }
  return report.ok() ? kExitOk : kExitRuntime;
}

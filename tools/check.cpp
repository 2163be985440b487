// cen check — the deterministic self-check harness: differential fuzzing
// and invariant checking of the codebase against itself.
//
// Every failure prints a one-line `cen check --engine E --seed N` command
// that replays exactly that case. --threads changes wall time only,
// never output: -1 (the default) is one worker per hardware thread, 0
// runs the cases inline and N on a pool of N.
//
// Exit codes: 0 all checks passed, 1 failures found, 2 usage error.
#include "check/check.hpp"
#include "cli.hpp"

using namespace cen;
using namespace cli;

int cli::run_check(const Context& ctx) {
  const Args& args = ctx.args;
  check::CheckOptions options;
  if (args.has("engine")) {
    for (const std::string& name : split(args.get("engine"), ',')) {
      const auto engine = check::engine_from_name(name);
      if (!engine.has_value()) throw UsageError("unknown engine '" + name + "'");
      options.engines.push_back(*engine);
    }
  }
  options.iterations = args.value<std::uint64_t>("iterations", 1000);
  options.mutation_budget = args.value("budget", 8);
  if (options.iterations < 1 || options.mutation_budget < 1) {
    throw UsageError("--iterations and --budget must be >= 1");
  }
  options.seed = ctx.common.seed.value_or(1);
  options.minimize = !args.has("no-minimize");
  options.threads = ctx.common.threads;

  const check::CheckReport report = check::run_checks(options);
  if (args.has("out") && !write_file(args.get("out"), report.to_json())) return kExitRuntime;
  if (ctx.common.json) {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::fputs(report.summary().c_str(), stdout);
  }
  return report.ok() ? kExitOk : kExitRuntime;
}

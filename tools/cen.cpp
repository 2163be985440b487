// cen — the one front end of the cendevice tools.
//
//   cen <subcommand> [flags]      cen <subcommand> --help      cen --help
//
// The subcommands come from the table below. The front end parses the
// common flags once (cli.hpp), builds the observer when any sink is
// requested, runs the subcommand, then writes --metrics / --trace /
// --journal / --perf-report. Exit code: 1 when a sink cannot be
// written, otherwise the subcommand's own (see cli::ExitCode); a usage
// error exits 2 and writes nothing.
#include <string_view>

#include "cli.hpp"

namespace {

struct Subcommand {
  std::string_view name;
  std::string_view summary;
  std::string_view usage;
  int (*run)(const cli::Context&);
};

constexpr Subcommand kSubcommands[] = {
    {"trace", "censorship traceroutes against a built-in scenario (CenTrace)",
     "--country AZ|BY|KZ|RU [--protocol http|https|dns|dns-udp]\n"
     "    [--endpoint N] [--domain D] [--reps N] [--sweeps]\n"
     "    [--tomography] [--vantages N] [--pcap FILE]\n",
     cli::run_trace},
    {"fuzz", "fuzz a blocked connection (CenFuzz)",
     "--country AZ|BY|KZ|RU [--endpoint N] [--domain D] [--successful-only]\n",
     cli::run_fuzz},
    {"probe", "locate devices with CenTrace, then banner-grab them (CenProbe)",
     "--country AZ|BY|KZ|RU [--reps N] [--ip A.B.C.D]\n", cli::run_probe},
    {"ambig", "fingerprint a DPI device by its reassembly ambiguities",
     "--country AZ|BY|KZ|RU [--endpoint N] [--domain D] [--reps N] [--order-salt N]\n"
     "    | --vendor-lab [--per-vendor N] [--reps N] [--order-salt N]\n",
     cli::run_ambig},
    {"cluster", "measure scenarios and cluster the blocked endpoints",
     "[--countries AZ,BY,KZ,RU] [--fuzz-cap N] [--reps N] [--top-k K]\n"
     "    [--export features.csv]\n",
     cli::run_cluster},
    {"campaign", "a declarative campaign with a result cache and resume",
     "[--spec FILE] [--countries AZ,BY,KZ,RU] [--world 1k|100k|1m|FILE]\n"
     "    [--max-endpoints N] [--max-domains N] [--fuzz-cap N]\n"
     "    [--ambig] [--ambig-cap N] [--ambig-reps N]\n"
     "    [--reps N] [--tomography] [--vantages N]\n"
     "    [--batch N] [--max-batches N]\n"
     "    [--cache FILE] [--out FILE] [--summary FILE]\n",
     cli::run_campaign},
    {"longit", "a campaign re-run over epochs of censor evolution",
     "[--spec FILE] [--countries AZ,BY,KZ,RU] [--epochs N]\n"
     "    [--evolve-seed N] [--evolve-start N] [--evolve-period N]\n"
     "    [--evolve-add P] [--evolve-remove P] [--evolve-upgrade P]\n"
     "    [--evolve-swap P] [--evolve-drift P] [--no-churn]\n"
     "    [--max-endpoints N] [--max-domains N] [--fuzz-cap N]\n"
     "    [--reps N] [--batch N] [--max-batches N] [--cache FILE]\n"
     "    [--out FILE]\n",
     cli::run_longit},
    {"world", "generate and inspect a synthetic world",
     "[--tier 1k|100k|1m] [--spec FILE] [--stats] [--dump FILE]\n"
     "    [--spec-json FILE]\n",
     cli::run_world},
    {"check", "the deterministic self-check harness",
     "[--all | --engine NAME[,NAME...]] [--iterations N] [--budget N]\n"
     "    [--no-minimize] [--out FILE]\n"
     "  engines: roundtrip, invariant, cache-replay, ml-oracle, worldgen,\n"
     "  ambig, longit (--all, the default, runs every one)\n",
     cli::run_check},
};

void print_table(std::FILE* out) {
  std::fprintf(out, "usage: cen <subcommand> [flags]   (cen <subcommand> --help)\n\n");
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(out, "  %-10.*s %.*s\n", static_cast<int>(sub.name.size()), sub.name.data(),
                 static_cast<int>(sub.summary.size()), sub.summary.data());
  }
}

void print_usage(std::FILE* out, const Subcommand& sub) {
  std::fprintf(out, "usage: cen %.*s %.*s%s", static_cast<int>(sub.name.size()),
               sub.name.data(), static_cast<int>(sub.usage.size()), sub.usage.data(),
               cli::kCommonUsage);
}

/// Write every requested sink; false when any could not be written.
bool write_sinks(const cli::Args& args, const cen::obs::Observer& obs) {
  bool ok = true;
  if (args.has("metrics")) {
    const std::string path = args.get("metrics");
    ok &= cli::write_file(path, cen::ends_with(path, ".prom") ? obs.metrics().to_prometheus()
                                                              : cen::report::to_json(obs));
  }
  if (args.has("trace")) ok &= cli::write_file(args.get("trace"), obs.tracer().to_chrome_json());
  if (args.has("journal")) ok &= cli::write_file(args.get("journal"), obs.journal().to_json());
  if (args.has("perf-report")) {
    // Includes the wall-domain series the deterministic sinks leave out,
    // so it is never byte-stable; bare, it goes to stdout.
    const std::string body = obs.metrics().to_json(/*include_wall=*/true);
    const std::string path = args.get("perf-report");
    if (path.empty()) {
      std::printf("%s\n", body.c_str());
    } else {
      ok &= cli::write_file(path, body);
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view name = argc > 1 ? argv[1] : "";
  const Subcommand* sub = nullptr;
  for (const Subcommand& s : kSubcommands) {
    if (s.name == name) sub = &s;
  }
  if (sub == nullptr) {
    const bool help = name == "--help";
    if (!help && !name.empty()) {
      std::fprintf(stderr, "cen: unknown subcommand '%s'\n", argv[1]);
    }
    print_table(help ? stdout : stderr);
    return help ? cli::kExitOk : cli::kExitUsage;
  }
  try {
    const cli::Args args(argc - 2, argv + 2);
    if (args.has("help")) {
      print_usage(stdout, *sub);
      return cli::kExitOk;
    }
    // Sink files are named before any work: a bare flag is a usage error,
    // not a file that cannot be written after the run (a bare
    // --perf-report prints to stdout).
    for (const char* sink : {"metrics", "trace", "journal"}) args.output_path(sink);
    cen::obs::Observer observer;
    const bool sinks = args.has("metrics") || args.has("trace") || args.has("journal") ||
                       args.has("perf-report");
    const int rc = sub->run({args, cli::parse_common(args), sinks ? &observer : nullptr});
    if (sinks && !write_sinks(args, observer)) return cli::kExitRuntime;
    return rc;
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "cen %s: %s\n", argv[1], e.what());
    print_usage(stderr, *sub);
    return cli::kExitUsage;
  }
}

// cen — the one front end of the cendevice tools.
//
//   cen <subcommand> [flags]      cen <subcommand> --help      cen --help
//
// The subcommands and their flag rows come from the tables below, plus
// cli::kCommonFlags for every subcommand; --help prints the rows. The front
// end parses the command line against the rows (cli::Args), builds the
// observer when any sink is requested, runs the subcommand, then writes
// --metrics / --trace / --journal / --perf-report. Exit code: 1 when a sink
// cannot be written, otherwise the subcommand's own (cli::ExitCode); a
// usage error, such as an unknown or bare flag, exits 2 and writes nothing.
#include <string_view>

#include "cli.hpp"

namespace {

using cli::Flag;

struct Subcommand {
  std::string_view name;
  std::string_view summary;
  std::span<const Flag> flags;
  int (*run)(const cli::Context&);
};

constexpr Flag kTraceFlags[] = {
    {"country", "AZ|BY|KZ|RU"}, {"protocol", "http|https|dns|dns-udp"}, {"endpoint", "N"},
    {"domain", "DOMAIN"}, {"reps", "N"}, {"sweeps"}, {"tomography"}, {"vantages", "N"},
    {"pcap", "FILE"},
};
constexpr Flag kFuzzFlags[] = {
    {"country", "AZ|BY|KZ|RU"}, {"endpoint", "N"}, {"domain", "DOMAIN"}, {"successful-only"},
};
constexpr Flag kProbeFlags[] = {{"country", "AZ|BY|KZ|RU"}, {"reps", "N"}, {"ip", "A.B.C.D"}};
constexpr Flag kAmbigFlags[] = {
    {"country", "AZ|BY|KZ|RU"}, {"endpoint", "N"}, {"domain", "DOMAIN"},
    {"reps", "N", "ambig.repetitions"}, {"order-salt", "N", "ambig.order_salt"}, {"vendor-lab"},
    {"per-vendor", "N"},
};
constexpr Flag kClusterFlags[] = {
    {"countries", "AZ,BY,KZ,RU"}, {"fuzz-cap", "N"}, {"reps", "N"}, {"top-k", "K"},
    {"export", "FILE"},
};
constexpr Flag kCampaignFlags[] = {
    {"spec", "FILE"}, {"countries", "AZ,BY,KZ,RU", "countries"}, {"world", "1k|100k|1m|FILE"},
    {"max-endpoints", "N", "max_endpoints"}, {"max-domains", "N", "max_domains"},
    {"fuzz-cap", "N", "fuzz_max_endpoints"}, {"ambig", "", "stages.ambig"},
    {"ambig-cap", "N", "ambig_max_endpoints"}, {"ambig-reps", "N", "ambig.repetitions"},
    {"reps", "N", "trace.repetitions"}, {"tomography", "", "trace.tomography"},
    {"vantages", "N", "trace.vantages"}, {"batch", "N", "batch_size"}, {"max-batches", "N"},
    {"cache", "FILE"}, {"out", "FILE"}, {"summary", "FILE"},
};
constexpr Flag kLongitFlags[] = {
    {"spec", "FILE"}, {"countries", "AZ,BY,KZ,RU", "countries"}, {"epochs", "N"},
    {"evolve-seed", "N", "evolution.seed"}, {"evolve-start", "N", "evolution.start_epoch"},
    {"evolve-period", "N", "evolution.period"}, {"evolve-add", "P", "evolution.rule_add_prob"},
    {"evolve-remove", "P", "evolution.rule_remove_prob"},
    {"evolve-upgrade", "P", "evolution.vendor_upgrade_prob"},
    {"evolve-swap", "P", "evolution.blockpage_swap_prob"},
    {"evolve-drift", "P", "evolution.coverage_drift_prob"}, {"no-churn"},
    {"max-endpoints", "N", "max_endpoints"}, {"max-domains", "N", "max_domains"},
    {"fuzz-cap", "N", "fuzz_max_endpoints"}, {"reps", "N", "trace.repetitions"},
    {"batch", "N", "batch_size"}, {"max-batches", "N"}, {"cache", "FILE"}, {"out", "FILE"},
};
// --stats is the default output: the row keeps documented command lines valid.
constexpr Flag kWorldFlags[] = {
    {"tier", "1k|100k|1m"}, {"spec", "FILE"}, {"stats"}, {"dump", "FILE"}, {"spec-json", "FILE"},
};
// --all is the default: every engine runs unless --engine names some.
constexpr Flag kCheckFlags[] = {
    {"all"}, {"engine", "NAME[,NAME...]"}, {"iterations", "N"}, {"budget", "N"}, {"no-minimize"},
    {"out", "FILE"},
};

constexpr Subcommand kSubcommands[] = {
    {"trace", "censorship traceroutes against a built-in scenario (CenTrace)", kTraceFlags,
     cli::run_trace},
    {"fuzz", "fuzz a blocked connection (CenFuzz)", kFuzzFlags, cli::run_fuzz},
    {"probe", "locate devices with CenTrace, then banner-grab them (CenProbe)", kProbeFlags,
     cli::run_probe},
    {"ambig", "fingerprint a DPI device by its reassembly ambiguities", kAmbigFlags,
     cli::run_ambig},
    {"cluster", "measure scenarios and cluster the blocked endpoints", kClusterFlags,
     cli::run_cluster},
    {"campaign", "a declarative campaign with a result cache and resume", kCampaignFlags,
     cli::run_campaign},
    {"longit", "a campaign re-run over epochs of censor evolution", kLongitFlags,
     cli::run_longit},
    {"world", "generate and inspect a synthetic world", kWorldFlags, cli::run_world},
    {"check", "the deterministic self-check harness", kCheckFlags, cli::run_check},
};

static_assert(std::ranges::all_of(kSubcommands,
                                  [](const Subcommand& s) { return cli::valid_rows(s.flags); }),
              "a subcommand spells a flag twice, or a key path names no member its row can set");

void print_table(std::FILE* out) {
  std::fprintf(out, "usage: cen <subcommand> [flags]   (cen <subcommand> --help)\n\n");
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(out, "  %-10.*s %.*s\n", static_cast<int>(sub.name.size()), sub.name.data(),
                 static_cast<int>(sub.summary.size()), sub.summary.data());
  }
}

/// `head`, then `[--name METAVAR]` for each row, three to a line.
void print_rows(std::FILE* out, const std::string& head, std::span<const Flag> rows) {
  std::fputs(head.c_str(), out);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "%s [--%.*s%s%.*s]", i % 3 == 0 ? "\n   " : "",
                 static_cast<int>(rows[i].name.size()), rows[i].name.data(),
                 rows[i].metavar.empty() ? "" : " ", static_cast<int>(rows[i].metavar.size()),
                 rows[i].metavar.data());
  }
  std::fprintf(out, "\n");
}

void print_usage(std::FILE* out, const Subcommand& sub) {
  print_rows(out, "usage: cen " + std::string(sub.name) + " [flags]", sub.flags);
  print_rows(out, "common flags:", cli::kCommonFlags);
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
    const cli::Args args(sub->flags, argc - 2, argv + 2);
    if (args.has("help")) {
      print_usage(stdout, *sub);
      return cli::kExitOk;
    }
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

// Shared command-line plumbing for the cendevice tools. The CLIs operate
// on the built-in scenarios (this is a simulator release: --country picks
// the AZ/BY/KZ/RU deployment, --scale its size).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/strings.hpp"
#include "obs/observer.hpp"
#include "report/json_report.hpp"
#include "scenario/pipeline.hpp"
#include "tool/options.hpp"

namespace cli {

/// Exit-code contract shared by every cendevice CLI:
///   0  success;
///   1  runtime / I/O failure (unwritable output, failed measurement);
///   2  usage error (unknown flag value, missing required argument);
///   3  campaign checkpoint incomplete (cencampaign only: the batch
///      budget ran out — re-run with the same --cache to resume);
///   4  measurement degraded (--tomography runs only: at least one
///      blocked measurement could not be hop-localized and fell back to
///      tomography or stayed unlocalized — results are usable but carry
///      link-level candidates instead of a pinned blocking hop).
enum ExitCode : int {
  kExitOk = 0,
  kExitRuntime = 1,
  kExitUsage = 2,
  kExitIncomplete = 3,
  kExitDegraded = 4,
};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
        std::exit(2);
      }
      std::string name = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        named_[name] = argv[++i];
      } else {
        named_[name] = "";  // boolean flag
      }
    }
  }

  bool has(const std::string& name) const { return named_.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback = "") const {
    auto it = named_.find(name);
    return it == named_.end() ? fallback : it->second;
  }
  int get_int(const std::string& name, int fallback) const {
    auto it = named_.find(name);
    return it == named_.end() ? fallback : std::atoi(it->second.c_str());
  }
  double get_double(const std::string& name, double fallback) const {
    auto it = named_.find(name);
    return it == named_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> named_;
};

inline bool write_file(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  return true;
}

/// Shared observability flags (all four CLIs):
///   --metrics FILE   deterministic metrics snapshot — Prometheus text
///                    exposition when FILE ends in ".prom", otherwise a
///                    JSON document with metrics + journal;
///   --trace FILE     Chrome trace-event JSON (load in chrome://tracing
///                    or https://ui.perfetto.dev);
///   --journal FILE   the structured measurement journal alone (JSON).
inline bool wants_observer(const Args& args) {
  return args.has("metrics") || args.has("trace") || args.has("journal") ||
         args.has("perf-report");
}

/// Write every requested observability sink; returns 0, or 1 on I/O error.
inline int write_observability(const Args& args, const cen::obs::Observer& obs) {
  int rc = 0;
  if (args.has("metrics")) {
    const std::string path = args.get("metrics");
    const std::string body = cen::ends_with(path, ".prom")
                                 ? obs.metrics().to_prometheus()
                                 : cen::report::to_json(obs);
    if (!write_file(path, body)) rc = 1;
  }
  if (args.has("trace") && !write_file(args.get("trace"), obs.tracer().to_chrome_json())) {
    rc = 1;
  }
  if (args.has("journal") && !write_file(args.get("journal"), obs.journal().to_json())) {
    rc = 1;
  }
  return rc;
}

/// --perf-report [FILE]: metrics snapshot INCLUDING the wall-domain
/// series the deterministic sinks exclude (counters perf.clone_ns /
/// perf.reset_ns / perf.tasks / perf.batches, pathcache.hits /
/// pathcache.misses / pathcache.trees; gauges pool.workers / pool.busy_ns /
/// pool.wall_ns). Host-clock and scheduling-dependent by design — never
/// byte-stable across runs, so it lives in its own sink. Written to FILE, or stdout when the flag is
/// passed bare. Returns 0, or 1 on I/O error.
inline int write_perf_report(const Args& args, const cen::obs::Observer& obs) {
  if (!args.has("perf-report")) return 0;
  const std::string body = obs.metrics().to_json(/*include_wall=*/true);
  const std::string path = args.get("perf-report");
  if (path.empty()) {
    std::fwrite(body.data(), 1, body.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  return write_file(path, body) ? 0 : 1;
}

/// Fault-plan knobs shared by the CLIs (inert unless a flag is passed):
///   --loss P              whole-walk transient loss (engine RNG — the
///                         legacy knob);
///   --fault-loss P        per-link packet loss on every link;
///   --fault-dup P         reply duplication probability;
///   --fault-reorder P     late-delivery (reordering) probability;
///   --fault-icmp-rate R   token-bucket ICMP rate limit per router (msgs/s).
inline cen::sim::FaultPlan parse_fault_plan(const Args& args) {
  cen::sim::FaultPlan plan;
  plan.transient_loss = args.get_double("loss", 0.0);
  plan.default_link.loss = args.get_double("fault-loss", 0.0);
  plan.default_link.duplicate = args.get_double("fault-dup", 0.0);
  plan.default_link.reorder = args.get_double("fault-reorder", 0.0);
  plan.default_node.icmp_rate_per_sec = args.get_double("fault-icmp-rate", 0.0);
  return plan;
}

/// True when any fault-plan flag was passed (the plan is inert otherwise).
inline bool has_fault_flags(const Args& args) {
  return args.has("loss") || args.has("fault-loss") || args.has("fault-dup") ||
         args.has("fault-reorder") || args.has("fault-icmp-rate");
}

inline cen::scenario::Country parse_country(const std::string& code) {
  using cen::scenario::Country;
  if (code == "AZ" || code == "az") return Country::kAZ;
  if (code == "BY" || code == "by") return Country::kBY;
  if (code == "KZ" || code == "kz") return Country::kKZ;
  if (code == "RU" || code == "ru") return Country::kRU;
  std::fprintf(stderr, "unknown country '%s' (expected AZ, BY, KZ or RU)\n",
               code.c_str());
  std::exit(2);
}

inline cen::scenario::Scale parse_scale(const std::string& scale) {
  if (scale == "small") return cen::scenario::Scale::kSmall;
  if (scale == "full" || scale.empty()) return cen::scenario::Scale::kFull;
  std::fprintf(stderr, "unknown scale '%s' (expected full or small)\n", scale.c_str());
  std::exit(2);
}

inline cen::trace::ProbeProtocol parse_protocol(const std::string& proto) {
  using cen::trace::ProbeProtocol;
  if (proto == "http" || proto.empty()) return ProbeProtocol::kHttp;
  if (proto == "https" || proto == "tls") return ProbeProtocol::kHttps;
  if (proto == "dns") return ProbeProtocol::kDns;
  if (proto == "dns-udp" || proto == "dnsudp") return ProbeProtocol::kDnsUdp;
  std::fprintf(stderr, "unknown protocol '%s' (expected http, https, dns or dns-udp)\n",
               proto.c_str());
  std::exit(2);
}

/// The flag set every cendevice CLI shares, parsed once. Declaring the
/// flags here (instead of per tool) keeps names, defaults and help text
/// consistent across centrace / cenfuzz / cenprobe / cencluster /
/// cencampaign.
struct CommonOptions {
  cen::scenario::Scale scale = cen::scenario::Scale::kFull;
  /// --threads N: -1 = one worker per hardware thread; 0 = the tool's
  /// serial (or inline-hermetic) path; >= 1 = pool of N. `has_threads`
  /// records whether the flag was passed at all (centrace keeps its
  /// legacy serial path when it wasn't).
  int threads = -1;
  bool has_threads = false;
  /// --retries N / --backoff MS: CenTrace adaptive-retry budget and
  /// simulated-time retry backoff for runs under faults.
  int retries = 6;
  cen::SimTime backoff = 0;
  /// The shared run fields of the unified tool API, populated here once
  /// (--retries / --backoff / --seed) so every CLI maps the same flags to
  /// every tool the same way: `opts.apply(common.run)` or
  /// `run_options.common = common.run`.
  cen::tool::CommonRunOptions run;
  bool json = false;
  /// Fault plan assembled from the --loss / --fault-* knobs; inert when
  /// none was passed (see has_fault_flags).
  cen::sim::FaultPlan faults;
};

/// Usage text for the shared flags — print after the per-tool usage line.
inline constexpr const char* kCommonUsage =
    "common flags:\n"
    "  --scale full|small    scenario size (default full)\n"
    "  --threads N           workers: -1 hardware, 0 serial, N pool\n"
    "  --retries N           adaptive retry budget under faults (default 6)\n"
    "  --backoff MS          simulated retry backoff (default 0)\n"
    "  --seed N              deterministic measurement-epoch seed\n"
    "  --json                machine-readable JSON output\n"
    "  --loss P --fault-loss P --fault-dup P --fault-reorder P\n"
    "  --fault-icmp-rate R   fault-plan knobs (inert by default)\n"
    "  --metrics FILE --trace FILE --journal FILE\n"
    "                        observability sinks (.prom for Prometheus text)\n"
    "  --perf-report [FILE]  wall-domain perf counters JSON (stdout if bare)\n";

inline CommonOptions parse_common(const Args& args) {
  CommonOptions o;
  o.scale = parse_scale(args.get("scale"));
  o.has_threads = args.has("threads");
  o.threads = args.get_int("threads", -1);
  o.retries = args.get_int("retries", 6);
  o.backoff = static_cast<cen::SimTime>(args.get_int("backoff", 0));
  // Only explicitly-passed flags reach the shared run options: an unset
  // field means "keep the tool's own default", so tools whose defaults
  // differ from the CLI fallback values are not silently reconfigured.
  if (args.has("retries")) o.run.retries = o.retries;
  if (args.has("backoff")) o.run.backoff = o.backoff;
  if (args.has("seed")) {
    o.run.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  }
  o.json = args.has("json");
  o.faults = parse_fault_plan(args);
  return o;
}

}  // namespace cli

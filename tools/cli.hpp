// Shared command-line plumbing for the `cen` front end and its
// subcommands. The subcommands operate on the built-in scenarios (this is
// a simulator release: --country picks the AZ/BY/KZ/RU deployment,
// --scale its size).
#pragma once

#include <charconv>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hpp"
#include "core/strings.hpp"
#include "obs/observer.hpp"
#include "report/json_report.hpp"
#include "scenario/pipeline.hpp"
#include "tool/options.hpp"

namespace cli {

/// Exit-code contract shared by every subcommand:
///   0  success;
///   1  runtime / I/O failure (unwritable output or sink, failed
///      measurement);
///   2  usage error (unknown subcommand or flag value, malformed number,
///      missing required argument) — nothing is written;
///   3  campaign checkpoint incomplete (campaign / longit: the batch
///      budget ran out — re-run with the same --cache to resume);
///   4  measurement degraded (trace --tomography only: at least one
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

/// Thrown for any usage error; the front end prints it and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// `--name value` pairs; a flag not followed by a value is boolean.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) throw UsageError("unexpected positional argument: " + arg);
      std::string name = arg.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        named_[name] = argv[++i];
      } else {
        named_[name] = "";
      }
    }
  }

  bool has(const std::string& name) const { return named_.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback = "") const {
    auto it = named_.find(name);
    return it == named_.end() ? fallback : it->second;
  }
  int get_int(const std::string& name, int fallback) const { return number(name, fallback); }
  /// Seeds and salts: the whole unsigned 64-bit range; a sign is malformed.
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) const {
    return number(name, fallback);
  }
  double get_double(const std::string& name, double fallback) const {
    return number(name, fallback);
  }
  /// An output file flag (--out FILE): "" when absent. A bare flag is a
  /// usage error, so subcommands read these before doing any work.
  std::string output_path(const std::string& name) const {
    const std::string path = get(name);
    if (has(name) && path.empty()) throw UsageError("--" + name + " expects a FILE");
    return path;
  }

 private:
  /// The flag's whole value as a T; anything else (`four`, `3x`, a bare
  /// flag, out of range) is a usage error naming the flag.
  template <typename T>
  T number(const std::string& name, T fallback) const {
    auto it = named_.find(name);
    if (it == named_.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
      throw UsageError("--" + name + " expects a number, got '" + text + "'");
    }
    return value;
  }

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

/// Fault-plan knobs (inert unless a flag is passed):
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

/// A country code in either case (`kz` or `KZ`).
inline cen::scenario::Country parse_country(const std::string& code) {
  const auto country = cen::scenario::country_from_code(cen::ascii_upper(code));
  if (!country) throw UsageError("unknown country '" + code + "' (expected AZ, BY, KZ or RU)");
  return *country;
}

inline cen::scenario::Scale parse_scale(const std::string& scale) {
  if (scale == "small") return cen::scenario::Scale::kSmall;
  if (scale == "full" || scale.empty()) return cen::scenario::Scale::kFull;
  throw UsageError("unknown scale '" + scale + "' (expected full or small)");
}

inline cen::trace::ProbeProtocol parse_protocol(const std::string& proto) {
  using cen::trace::ProbeProtocol;
  if (proto == "http" || proto.empty()) return ProbeProtocol::kHttp;
  if (proto == "https" || proto == "tls") return ProbeProtocol::kHttps;
  if (proto == "dns") return ProbeProtocol::kDns;
  if (proto == "dns-udp" || proto == "dnsudp") return ProbeProtocol::kDnsUdp;
  throw UsageError("unknown protocol '" + proto + "' (expected http, https, dns or dns-udp)");
}

/// The flag set every subcommand shares, parsed once by the front end.
struct CommonOptions {
  cen::scenario::Scale scale = cen::scenario::Scale::kFull;
  /// --threads N: -1 = one worker per hardware thread; 0 = inline (no
  /// pool, the same output); >= 1 = pool of N.
  int threads = -1;
  /// The shared run fields of the unified tool API, populated here once
  /// (--retries N: CenTrace's adaptive retry budget under faults;
  /// --backoff MS: the simulated retry backoff; --seed) so every
  /// subcommand maps the same flags to every tool the same way:
  /// `opts.apply(common.run)` or `run_options.common = common.run`.
  cen::tool::CommonRunOptions run;
  bool json = false;
  /// Fault plan assembled from the --loss / --fault-* knobs; inert when
  /// none was passed (see has_fault_flags).
  cen::sim::FaultPlan faults;
};

/// Usage text for the shared flags — printed after each subcommand's own.
inline constexpr const char* kCommonUsage =
    "common flags (each subcommand reads the ones it uses):\n"
    "  --scale full|small    scenario size (default full)\n"
    "  --threads N           workers: -1 hardware (default), N pool,\n"
    "                        0 inline: no pool, same output\n"
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
  o.threads = args.get_int("threads", -1);
  // Only explicitly-passed flags reach the shared run options: an unset
  // field means "keep the tool's own default".
  if (args.has("retries")) o.run.retries = args.get_int("retries", 0);
  if (args.has("backoff")) o.run.backoff = static_cast<cen::SimTime>(args.get_int("backoff", 0));
  if (args.has("seed")) o.run.seed = args.get_u64("seed", 1);
  o.json = args.has("json");
  o.faults = parse_fault_plan(args);
  return o;
}

/// What the front end hands a subcommand: its flags, the common options
/// parsed from them, and the observer — non-null when any sink
/// (--metrics/--trace/--journal/--perf-report) was requested. The front
/// end writes the sinks after the subcommand returns.
struct Context {
  const Args& args;
  CommonOptions common;
  cen::obs::Observer* observer = nullptr;
};

/// --country (required): the built-in scenario with the common fault plan.
inline cen::scenario::CountryScenario make_site(const Context& ctx) {
  if (!ctx.args.has("country")) throw UsageError("--country is required");
  cen::scenario::CountryScenario s =
      cen::scenario::make_country(parse_country(ctx.args.get("country")), ctx.common.scale);
  s.network->set_fault_plan(ctx.common.faults);
  return s;
}

/// --endpoint N (default 0): the scenario's N-th remote endpoint.
inline cen::net::Ipv4Address select_endpoint(const Context& ctx,
                                              const cen::scenario::CountryScenario& s) {
  const int index = ctx.args.get_int("endpoint", 0);
  if (index < 0 || index >= static_cast<int>(s.remote_endpoints.size())) {
    throw UsageError("endpoint index out of range (0.." +
                     std::to_string(s.remote_endpoints.size() - 1) + ")");
  }
  return s.remote_endpoints[static_cast<std::size_t>(index)];
}

/// The campaign spec of `campaign` and `longit`: --spec FILE (or the
/// defaults), overridden by --countries, --scale, --seed, --max-endpoints,
/// --max-domains, --fuzz-cap, --reps, --batch (>= 1) and the fault flags.
cen::campaign::CampaignSpec campaign_spec(const Context& ctx);
/// --threads, --cache, --max-batches and the observer.
cen::campaign::RunControl run_control(const Context& ctx);

// The subcommands (one file each); the front end's table in cen.cpp
// names them.
int run_trace(const Context& ctx);
int run_fuzz(const Context& ctx);
int run_probe(const Context& ctx);
int run_ambig(const Context& ctx);
int run_cluster(const Context& ctx);
int run_campaign(const Context& ctx);
int run_longit(const Context& ctx);
int run_world(const Context& ctx);
int run_check(const Context& ctx);

}  // namespace cli

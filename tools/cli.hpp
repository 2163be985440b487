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
#include "report/wire.hpp"
#include "scenario/pipeline.hpp"

namespace cli {

/// Exit-code contract shared by every subcommand:
///   0  success;
///   1  runtime / I/O failure (unwritable output or sink, failed
///      measurement);
///   2  usage error (unknown subcommand or flag, a value flag given bare,
///      a value after a boolean flag, a malformed or out-of-range value,
///      a missing required argument) — nothing is written;
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

/// One flag of a subcommand: its name; its metavar, empty for a boolean
/// flag and bracketed when the value may be left out; and, for a flag that
/// sets a config field, the field's key path in the CampaignSpec table.
struct Flag {
  std::string_view name;
  std::string_view metavar = {};
  std::string_view key = {};
};

/// The flags every subcommand accepts. The keyed ones set the spec of
/// `campaign` and `longit`; the fault rows also make CommonOptions::faults,
/// and the trace.* rows also set the tracer's options of `trace`. The
/// other subcommands write --retries and --backoff into their own tools'
/// options, or ignore them where the tool has no such knob (docs/TOOLS.md).
inline constexpr Flag kCommonFlags[] = {
    {"help"}, {"json"}, {"scale", "full|small", "scale"}, {"threads", "N"}, {"seed", "N", "seed"},
    {"retries", "N", "trace.adaptive_max_retries"}, {"backoff", "MS", "trace.retry_backoff_ms"},
    {"loss", "P", "faults.transient_loss"}, {"fault-loss", "P", "faults.link_loss"},
    {"fault-dup", "P", "faults.link_duplicate"}, {"fault-reorder", "P", "faults.link_reorder"},
    {"fault-icmp-rate", "R", "faults.icmp_rate_per_sec"},
    {"metrics", "FILE"}, {"trace", "FILE"}, {"journal", "FILE"}, {"perf-report", "[FILE]"},
};

namespace wire = cen::report::wire;

/// What a value row can set: a number, an enum or a list of enums.
template <typename V>
concept FlagValue = (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>) || std::is_enum_v<V> ||
                    (wire::Vector<V> && std::is_enum_v<typename V::value_type>);

/// Whether a subcommand's rows and the common rows spell each flag once,
/// and each config row's key path names a member the row can set: a bool
/// for a boolean row, a FlagValue for a value row.
constexpr bool valid_rows(std::span<const Flag> rows) {
  std::vector<Flag> all(rows.begin(), rows.end());
  all.insert(all.end(), std::begin(kCommonFlags), std::end(kCommonFlags));
  std::ranges::sort(all, {}, &Flag::name);
  return std::ranges::adjacent_find(all, {}, &Flag::name) == all.end() &&
         std::ranges::all_of(all, [](const Flag& row) {
           return row.key.empty() ||
                  wire::at_path<cen::campaign::CampaignSpec>(
                      static_cast<cen::campaign::CampaignSpec*>(nullptr), row.key,
                      [&]<typename V>(V*, wire::Names) {
                        return row.metavar.empty() ? std::is_same_v<V, bool> : FlagValue<V>;
                      });
         });
}

/// `text` as a V: a whole number in V's range, one of `names` (an
/// upper-cased match counts: `kz` is KZ), or a comma-separated list of them.
template <typename V>
bool parse_value(std::string_view text, V& out, wire::Names names) {
  if constexpr (wire::Vector<V>) {
    V list;
    for (const std::string& item : cen::split(text, ',')) {
      if (!parse_value(item, list.emplace_back(), names)) return false;
    }
    out = std::move(list);
    return true;
  } else if constexpr (std::is_enum_v<V>) {
    const auto it = std::ranges::find_if(
        names, [&](std::string_view n) { return n == text || n == cen::ascii_upper(text); });
    if (it != names.end()) out = static_cast<V>(it - names.begin());
    return it != names.end();
  } else {
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
    return !text.empty() && ec == std::errc() && end == text.data() + text.size();
  }
}

/// A subcommand's command line, parsed against its rows and the common
/// rows before any work: a flag in no row, a value row given bare (or an
/// empty value) and a value after a boolean row are usage errors. A value
/// row takes the next argument unless it starts with `--`; a repeated
/// flag's last value wins.
class Args {
 public:
  Args(std::span<const Flag> rows, int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        // Only the first argument or one after a boolean flag gets here.
        throw UsageError("unexpected argument '" + arg + "'" +
                         (i > 0 ? " after " + std::string(argv[i - 1]) : ""));
      }
      const Flag* row = nullptr;
      for (std::span<const Flag> table : {rows, std::span<const Flag>(kCommonFlags)}) {
        for (const Flag& r : table) row = r.name == arg.substr(2) ? &r : row;
      }
      if (row == nullptr) throw UsageError("unknown flag '" + arg + "'");
      const bool valued = !row->metavar.empty();
      std::string value;
      if (valued && i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) value = argv[++i];
      if (valued && value.empty() && row->metavar.front() != '[') {
        throw UsageError(arg + " expects " +
                         (row->metavar == "FILE" ? "a FILE" : std::string(row->metavar)));
      }
      named_[std::string(row->name)] = {row, std::move(value)};
    }
  }

  bool has(const std::string& name) const { return named_.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback = "") const {
    auto it = named_.find(name);
    return it == named_.end() ? fallback : it->second.value;
  }

  /// The flag's value as a V (parse_value), or `fallback` when it is not
  /// given; anything else (`four`, `3x`, `-1` for an unsigned V, out of
  /// range, no such name) is a usage error naming the flag.
  template <typename V>
  V value(const std::string& name, V fallback, wire::Names names = {}) const {
    auto it = named_.find(name);
    if (it == named_.end() || parse_value(it->second.value, fallback, names)) return fallback;
    std::string expected = names.empty() ? "a number" : "";
    for (std::string_view n : names) expected += (expected.empty() ? "" : "|") + std::string(n);
    throw UsageError("--" + name + " expects " + expected + ", got '" + it->second.value + "'");
  }

  /// Writes each given config row whose key path starts with `section`
  /// into `obj`, at the rest of the path in T's table.
  template <typename T>
  void apply(T& obj, std::string_view section = {}) const {
    for (const auto& [name, given] : named_) {
      if (given.row->key.empty() || !given.row->key.starts_with(section)) continue;
      wire::at_path<T>(&obj, given.row->key.substr(section.size()),
                       [&]<typename V>(V* member, wire::Names names) {
                         if constexpr (std::is_same_v<V, bool>) *member = true;
                         if constexpr (FlagValue<V>) *member = value(name, *member, names);
                         return true;
                       });
    }
  }

 private:
  struct Given {
    const Flag* row;
    std::string value;
  };
  std::map<std::string, Given> named_;
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

/// The spec in the file a flag names, decoded by `from_json`; a file that
/// cannot be read or decoded is a usage error with the reason.
template <typename FromJson>
auto load_spec(const std::string& path, FromJson from_json) {
  const std::optional<std::string> text = cen::read_file(path);
  std::string error = "cannot open spec file: " + path;
  auto spec = text ? from_json(*text, &error) : std::nullopt;
  if (!spec) throw UsageError("bad spec " + path + ": " + error);
  return std::move(*spec);
}

/// A country code in either case (`kz` or `KZ`).
inline cen::scenario::Country parse_country(const std::string& code) {
  cen::scenario::Country country{};
  if (!parse_value(code, country, cen::scenario::kCountryCodes)) {
    throw UsageError("unknown country '" + code + "' (expected AZ, BY, KZ or RU)");
  }
  return country;
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
  /// --seed N: the epoch `fuzz`, `ambig` and `probe --ip` reset the
  /// network to before each run, and the seed of `world` and `check`.
  std::optional<std::uint64_t> seed;
  bool json = false;
  /// The fault plan of the --loss / --fault-* rows; inert by default.
  cen::sim::FaultPlan faults;
};

inline CommonOptions parse_common(const Args& args) {
  CommonOptions o;
  o.scale = args.value("scale", o.scale, cen::scenario::kScaleNames);
  o.threads = args.value("threads", -1);
  // The subcommands read --retries and --backoff into their tools'
  // options; a malformed value is a usage error in every subcommand.
  args.value("retries", 0);
  args.value<cen::SimTime>("backoff", 0);
  if (args.has("seed")) o.seed = args.value<std::uint64_t>("seed", 1);
  o.json = args.has("json");
  args.apply(o.faults, "faults.");
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

/// The pipeline of `probe` and `cluster`: --reps sweeps per domain (default
/// 5), --retries and --backoff for CenTrace, the common threads and faults.
inline cen::scenario::PipelineOptions pipeline_options(const Context& ctx) {
  cen::scenario::PipelineOptions o;
  o.centrace_repetitions = ctx.args.value("reps", 5);
  o.centrace_adaptive_retries = ctx.args.value("retries", o.centrace_adaptive_retries);
  o.centrace_retry_backoff = ctx.args.value("backoff", o.centrace_retry_backoff);
  o.threads = ctx.common.threads;
  o.observer = ctx.observer;
  o.faults = ctx.common.faults;
  return o;
}

/// --endpoint N (default 0): the scenario's N-th remote endpoint.
inline cen::net::Ipv4Address select_endpoint(const Context& ctx,
                                              const cen::scenario::CountryScenario& s) {
  const int index = ctx.args.value("endpoint", 0);
  if (index < 0 || index >= static_cast<int>(s.remote_endpoints.size())) {
    throw UsageError("endpoint index out of range (0.." +
                     std::to_string(s.remote_endpoints.size() - 1) + ")");
  }
  return s.remote_endpoints[static_cast<std::size_t>(index)];
}

/// The campaign spec of `campaign` and `longit`: --spec FILE (or the
/// defaults), overridden by the subcommand's config rows, then checked
/// (campaign::check_spec).
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

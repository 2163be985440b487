// perfbench_campaign — one step of the campaign benchmark per invocation.
// run.py drives it; each mode prints one JSON object on stdout.
//
//   perfbench_campaign fingerprint
//   perfbench_campaign setup     --workload W --seed N [--tiny]
//   perfbench_campaign reference --workload W --seed N [--cache FILE] [--tiny]
//   perfbench_campaign run       --workload W --seed N --cache FILE [--tiny]
//   perfbench_campaign trace     --workload W --seed N --cache FILE --spans FILE [--tiny]
//
// setup     times one build of the workload's sites by the public builders.
// reference runs the campaign inline (threads = 0) and prints its output
//           hash; with --cache it also writes that cache (the warm prefill).
// run       is one timed campaign::run with kWorkers executor workers.
// trace     runs the campaign once, then the traced replay of its tasks.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
#include <sys/resource.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "core/json.hpp"
#include "replay.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace cen;
using namespace perfbench;

namespace {

struct Args {
  std::string mode;
  std::map<std::string, std::string> values;
  bool tiny = false;

  const std::string& get(const std::string& key) const {
    auto it = values.find(key);
    if (it == values.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  std::string get_or(const std::string& key, std::string fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

/// Shortest round-trip decimal rendering of a double (JSON number).
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

/// JSON string literal.
std::string json_string(std::string_view s) {
  JsonWriter w;
  w.value(s);
  return w.str();
}

/// A flat JSON object of already-rendered values, in insertion order.
std::string json_object(const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields[i].first);
    out += ": ";
    out += fields[i].second;
  }
  out += "}";
  return out;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      a.values[flag.substr(2)] = argv[++i];
    } else {
      throw std::invalid_argument("bad argument '" + flag + "'");
    }
  }
  return a;
}

Workload workload_of(const Args& a) {
  return make_workload(a.get("workload"), std::stoull(a.get("seed")), a.tiny);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec / 1e6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

std::uintmax_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

int mode_fingerprint() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef __clang__
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf("%s\n", json_object({{"compiler", json_string(compiler)},
                                   {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
                                   {"optimized", optimized ? "true" : "false"},
                                   {"workers", std::to_string(kWorkers)}})
                          .c_str());
  return 0;
}

int mode_setup(const Args& a) {
  const Workload w = workload_of(a);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<Site> sites = build_sites(w.spec);
  const double s = seconds_since(t0);
  if (sites.empty()) throw std::runtime_error("workload built no sites");
  std::printf("%s\n", json_object({{"setup_s", number(s)}}).c_str());
  return 0;
}

int mode_reference(const Args& a) {
  const Workload w = workload_of(a);
  campaign::RunControl control;
  control.threads = 0;  // inline hermetic: the identity reference
  control.cache_path = a.get_or("cache", "");
  if (!control.cache_path.empty()) std::filesystem::remove(control.cache_path);
  const campaign::CampaignResult result = campaign::run(w.spec, control);
  std::printf("%s\n", json_object({{"hash", json_string(output_hash(result))},
                                   {"tasks", std::to_string(total_tasks(result))},
                                   {"failed", std::to_string(failed_tasks(result))}})
                          .c_str());
  return 0;
}

int mode_run(const Args& a) {
  const Workload w = workload_of(a);
  campaign::RunControl control;
  control.threads = kWorkers;
  control.cache_path = a.get("cache");
  if (!w.warm) std::filesystem::remove(control.cache_path);
  const std::uintmax_t before = file_bytes(control.cache_path);

  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  const campaign::CampaignResult result = campaign::run(w.spec, control);
  const double wall = seconds_since(t0);
  const double cpu = cpu_seconds() - cpu0;
  const double rss = peak_rss_mb();
  const std::uintmax_t after = file_bytes(control.cache_path);

  std::printf("%s\n",
              json_object({{"campaign_s", number(wall)},
                           {"cpu_s", number(cpu)},
                           {"peak_rss_mb", number(rss)},
                           {"cache_bytes", std::to_string(w.warm ? before : after - before)},
                           {"tasks", std::to_string(total_tasks(result))},
                           {"failed", std::to_string(failed_tasks(result))},
                           {"executed", std::to_string(result.tool_tasks_executed())},
                           {"hash", json_string(output_hash(result))}})
                  .c_str());
  return 0;
}

int mode_trace(const Args& a) {
  const Workload w = workload_of(a);
  campaign::RunControl control;
  control.threads = kWorkers;
  control.cache_path = a.get("cache");
  std::string replay_cache = control.cache_path;
  if (!w.warm) {
    // Cold workloads: the campaign and the replay each start empty.
    replay_cache += ".replay";
    std::filesystem::remove(control.cache_path);
    std::filesystem::remove(replay_cache);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const campaign::CampaignResult timed = campaign::run(w.spec, control);
  const double wall = seconds_since(t0);
  if (!timed.complete) throw std::runtime_error("campaign incomplete");

  const Metrics metrics = traced_replay(w, timed, replay_cache, a.get("spans"));
  std::vector<std::pair<std::string, std::string>> fields;
  for (const Metric& m : metrics) {
    fields.emplace_back(m.name,
                        json_object({{"value", number(m.value)}, {"unit", json_string(m.unit)}}));
  }
  std::printf("%s\n", json_object({{"campaign_s", number(wall)},
                                   {"metrics", json_object(fields)}})
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    if (args.mode == "fingerprint") return mode_fingerprint();
    if (args.mode != "setup" && args.mode != "reference" && args.mode != "run" &&
        args.mode != "trace") {
      throw std::invalid_argument("unknown mode '" + args.mode + "'");
    }
    workload_of(args);  // validate the workload name and seed up front
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_campaign: %s\n", e.what());
    return 2;
  }
  try {
    if (args.mode == "setup") return mode_setup(args);
    if (args.mode == "reference") return mode_reference(args);
    if (args.mode == "run") return mode_run(args);
    return mode_trace(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_campaign %s: %s\n", args.mode.c_str(), e.what());
    return 1;
  }
}

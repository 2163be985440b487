// Pipeline scaling trajectory: wall-clock the full KZ country pipeline at
// 1, 2, 4 and hardware_concurrency worker threads and emit the machine-
// readable BENCH_pipeline.json trajectory point (wall ms + speedup per
// thread count, plus a serial-vs-parallel verdict). The hermetic executor
// guarantees every row computes the *same* result, so the speedup column
// compares equal work.
//
// The run also acts as the scaling-regression guard: it reports a
// `scaling_efficiency` figure (speedup at 4 threads, or at the largest
// measured count when fewer than 4 hardware threads exist) and enforces a
// hardware-aware floor on it. On a single-core host true parallel speedup
// is physically impossible — threads time-slice one CPU and the pool adds
// coordination overhead — so the floor adapts to what the machine can
// express:
//
//   hw >= 4:  efficiency >= 1.60  (real parallel speedup required)
//   hw >= 2:  efficiency >= 1.20
//   hw == 1:  efficiency >= 0.85  (threading tax bounded at 15%)
//
// Exit code 1 on a determinism violation or a floor violation, so the
// `perf`-labelled ctest entry fails loudly on regression.
//
//   ./bench_pipeline_scale [output.json]      (default BENCH_pipeline.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <vector>

#include "bench_common.hpp"
#include "core/fingerprint.hpp"
#include "core/json.hpp"
#include "core/thread_pool.hpp"
#include "report/json_report.hpp"

namespace {

using namespace cen;

struct Run {
  int threads = 0;
  double wall_ms = 0.0;
  std::size_t remote_traces = 0;
  std::size_t blocked = 0;
  std::uint64_t json_digest = 0;  // content digest of the report JSON
};

Run run_once(int threads) {
  scenario::CountryScenario s =
      scenario::make_country(scenario::Country::kKZ, scenario::Scale::kFull);
  scenario::PipelineOptions o;
  o.centrace_repetitions = 11;  // the paper's path-variance repetition count
  o.fuzz_max_endpoints = 40;    // sampled evenly across blocked endpoints
  o.threads = threads;
  auto t0 = std::chrono::steady_clock::now();
  scenario::PipelineResult r = scenario::run_country_pipeline(s, o);
  auto t1 = std::chrono::steady_clock::now();
  Run out;
  out.threads = threads;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.remote_traces = r.remote_traces.size();
  out.blocked = r.blocked_remote();
  out.json_digest = FingerprintBuilder().mix(report::to_json(r)).digest();
  return out;
}

/// The floor `scaling_efficiency` must clear on this machine.
double efficiency_floor(int hw) {
  if (hw >= 4) return 1.60;
  if (hw >= 2) return 1.20;
  return 0.85;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  const int hw = ThreadPool::hardware_threads();

  std::vector<int> counts = {1, 2, 4};
  if (std::set<int>(counts.begin(), counts.end()).count(hw) == 0) counts.push_back(hw);

  bench::header("Pipeline scaling: KZ full scenario (11 repetitions)");
  std::printf("%8s %12s %10s %8s %8s\n", "threads", "wall_ms", "speedup",
              "traces", "blocked");

  std::vector<Run> runs;
  for (int threads : counts) runs.push_back(run_once(threads));
  const double base_ms = runs.front().wall_ms;

  bool identical = true;
  for (const Run& r : runs) {
    if (r.json_digest != runs.front().json_digest) identical = false;
    std::printf("%8d %12.1f %9.2fx %8zu %8zu\n", r.threads, r.wall_ms,
                base_ms / r.wall_ms, r.remote_traces, r.blocked);
  }
  std::printf("results identical across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM VIOLATION");

  // Scaling efficiency: speedup at 4 workers when the machine has them,
  // otherwise at the largest measured count that fits the hardware.
  const int eff_threads = hw >= 4 ? 4 : hw;
  double eff_ms = base_ms;
  for (const Run& r : runs) {
    if (r.threads == eff_threads) eff_ms = r.wall_ms;
  }
  const double efficiency = base_ms / eff_ms;
  const double floor = efficiency_floor(hw);
  const bool floor_ok = efficiency >= floor;
  std::printf("scaling efficiency (x%d on %d hw threads): %.2fx (floor %.2fx) %s\n",
              eff_threads, hw, efficiency, floor, floor_ok ? "ok" : "VIOLATION");

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("pipeline_scale");
  w.key("scenario").value("KZ-full");
  w.key("centrace_repetitions").value(11);
  w.key("hardware_threads").value(hw);
  w.key("identical_results").value(identical);
  w.key("scaling_efficiency").value(efficiency);
  w.key("scaling_efficiency_threads").value(eff_threads);
  w.key("scaling_floor").value(floor);
  w.key("scaling_floor_ok").value(floor_ok);
  w.key("runs").begin_array();
  for (const Run& r : runs) {
    w.begin_object();
    w.key("threads").value(r.threads);
    w.key("wall_ms").value(r.wall_ms);
    w.key("speedup").value(base_ms / r.wall_ms);
    w.key("remote_traces").value(static_cast<std::uint64_t>(r.remote_traces));
    w.key("blocked").value(static_cast<std::uint64_t>(r.blocked));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::ofstream out(out_path);
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_path);
  if (!identical) return 1;
  return floor_ok ? 0 : 1;
}

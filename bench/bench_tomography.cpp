// Tomography degradation bench: the blackhole-probability sweep from the
// graceful-degradation acceptance criterion, run as a standing benchmark.
// For each probability we count how often classic (full-ICMP) CenTrace
// localizes the censor, how often the degradation ladder escalates, and
// whether the tomography candidate set contains the ground-truth censored
// link when it does. Two guards gate the exit code:
//   - accuracy: among trials where full CenTrace fails at p >= 0.8, the
//     solver recovers the true link in >= 90 %;
//   - determinism: re-running the degraded measurement on a fresh scenario
//     yields a byte-identical report.
//
//   ./bench_tomography [output.json]      (default BENCH_tomography.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "centrace/degrade.hpp"
#include "core/json.hpp"
#include "report/json_report.hpp"
#include "scenario/silent.hpp"

using namespace cen;

namespace {

trace::CenTraceOptions fast_opts() {
  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  return opts;
}

trace::DegradationPlan scenario_plan(const scenario::SilentScenario& s) {
  trace::DegradationPlan plan;
  plan.tomography = true;
  plan.vantages.assign(s.vantages.begin() + 1, s.vantages.end());
  return plan;
}

bool candidates_contain_true_link(const trace::CenTraceReport& r,
                                  const scenario::SilentScenario& s) {
  const sim::Topology& topo = s.network->topology();
  const net::Ipv4Address a = topo.node_ip(s.true_link.a);
  const net::Ipv4Address b = topo.node_ip(s.true_link.b);
  for (const trace::BlamedLink& link : r.degradation.candidate_links) {
    if ((link.ip_a == a && link.ip_b == b) || (link.ip_a == b && link.ip_b == a)) {
      return true;
    }
  }
  return false;
}

struct SweepPoint {
  double probability = 0.0;
  int trials = 0;
  int full_localized = 0;   // classic CenTrace pinned the censor IP
  int full_failures = 0;    // classic CenTrace mislocalized or gave up
  int tomography_hits = 0;  // ladder recovered the true link on a failure
  double candidates_sum = 0.0;
  double wall_ms = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_tomography.json";

  const double probabilities[] = {0.0, 0.8, 0.9, 1.0};
  const std::uint64_t kSeeds = 8;

  std::vector<SweepPoint> sweep;
  for (double p : probabilities) {
    SweepPoint point;
    point.probability = p;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      scenario::SilentOptions so;
      so.blackhole_probability = p;
      ++point.trials;
      bool full_ok = false;
      {
        scenario::SilentScenario s = scenario::make_silent(so, seed);
        trace::CenTrace plain(*s.network, s.vantages[0], fast_opts());
        trace::CenTraceReport r =
            plain.measure(s.endpoint, s.test_domain, s.control_domain);
        const net::Ipv4Address censor_ip = s.network->topology().node_ip(s.censor_node);
        full_ok =
            r.blocked && r.blocking_hop_ip.has_value() && *r.blocking_hop_ip == censor_ip;
      }
      if (full_ok) {
        ++point.full_localized;
        continue;
      }
      ++point.full_failures;
      scenario::SilentScenario s = scenario::make_silent(so, seed);
      trace::DegradationPlan plan = scenario_plan(s);
      trace::CenTraceReport r = trace::measure_with_degradation(
          *s.network, s.vantages[0], s.endpoint, s.test_domain, s.control_domain,
          fast_opts(), &plan);
      point.candidates_sum += static_cast<double>(r.degradation.candidate_links.size());
      if (r.degradation.mode == trace::DegradationMode::kTomography &&
          candidates_contain_true_link(r, s)) {
        ++point.tomography_hits;
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    point.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    sweep.push_back(point);
  }

  int failures = 0;
  int hits = 0;
  for (const SweepPoint& point : sweep) {
    if (point.probability < 0.8) continue;
    failures += point.full_failures;
    hits += point.tomography_hits;
  }
  const double accuracy = failures > 0 ? static_cast<double>(hits) / failures : 1.0;
  const bool accuracy_pass = failures > 0 && hits * 10 >= failures * 9;

  // Determinism guard: the degraded measurement is a pure function of the
  // scenario seed — fresh scenario, same seed, byte-identical report.
  std::string first_json;
  bool deterministic = true;
  for (int rep = 0; rep < 2; ++rep) {
    scenario::SilentOptions so;
    so.blackhole_probability = 1.0;
    scenario::SilentScenario s = scenario::make_silent(so, 7);
    trace::DegradationPlan plan = scenario_plan(s);
    trace::CenTraceReport r = trace::measure_with_degradation(
        *s.network, s.vantages[0], s.endpoint, s.test_domain, s.control_domain,
        fast_opts(), &plan);
    std::string json = report::to_json(r);
    if (rep == 0) {
      first_json = std::move(json);
    } else {
      deterministic = json == first_json;
    }
  }
  const bool guard_pass = accuracy_pass && deterministic;

  std::printf("tomography bench (%llu seeds per point)\n",
              static_cast<unsigned long long>(kSeeds));
  for (const SweepPoint& point : sweep) {
    std::printf(
        "  p=%.2f  full-localized %d/%d  ladder recovered %d/%d  "
        "avg candidates %.1f  %7.1f ms\n",
        point.probability, point.full_localized, point.trials,
        point.tomography_hits, point.full_failures,
        point.full_failures > 0 ? point.candidates_sum / point.full_failures : 0.0,
        point.wall_ms);
  }
  std::printf("accuracy at p>=0.8: %d/%d (%.0f %%, need >= 90 %%)\n", hits, failures,
              accuracy * 100.0);
  std::printf("guards (accuracy, deterministic report): %s\n",
              guard_pass ? "PASS" : "FAIL");

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("tomography");
  w.key("seeds_per_point").value(static_cast<std::uint64_t>(kSeeds));
  w.key("sweep").begin_array();
  for (const SweepPoint& point : sweep) {
    w.begin_object();
    w.key("blackhole_probability").value(point.probability);
    w.key("trials").value(static_cast<std::uint64_t>(point.trials));
    w.key("full_localized").value(static_cast<std::uint64_t>(point.full_localized));
    w.key("full_failures").value(static_cast<std::uint64_t>(point.full_failures));
    w.key("tomography_hits").value(static_cast<std::uint64_t>(point.tomography_hits));
    w.key("avg_candidates")
        .value(point.full_failures > 0 ? point.candidates_sum / point.full_failures
                                       : 0.0);
    w.key("wall_ms").value(point.wall_ms);
    w.end_object();
  }
  w.end_array();
  w.key("accuracy").value(accuracy);
  w.key("accuracy_pass").value(accuracy_pass);
  w.key("deterministic").value(deterministic);
  w.key("guard_pass").value(guard_pass);
  w.end_object();
  std::ofstream(out_path) << w.str() << "\n";
  std::printf("wrote %s\n", out_path);
  return guard_pass ? 0 : 1;
}

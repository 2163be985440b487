// Self-check throughput: cases/second per engine at a fixed seed, plus the
// determinism guard the check contract promises — the report must be
// byte-identical across thread counts and clean on the shipped tree.
// Exit 1 when either guard fails.
//
//   ./bench_check [output.json]      (default BENCH_check.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "check/check.hpp"
#include "core/json.hpp"

using namespace cen;

namespace {

double run_ms(const check::CheckOptions& options, check::CheckReport& out) {
  auto t0 = std::chrono::steady_clock::now();
  out = check::run_checks(options);
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_check.json";

  check::CheckOptions options;
  options.iterations = 2000;
  options.seed = 1;
  options.threads = 0;  // serial baseline: inline

  check::CheckReport serial, parallel;
  const double serial_ms = run_ms(options, serial);
  options.threads = 4;
  const double parallel_ms = run_ms(options, parallel);

  std::uint64_t cases = 0;
  std::uint64_t checks = 0;
  for (const check::EngineStats& s : serial.stats) {
    cases += s.cases;
    checks += s.checks;
  }
  const double cases_per_sec = serial_ms > 0 ? cases / (serial_ms / 1000.0) : 0.0;
  const bool identical = serial.to_json() == parallel.to_json();
  const bool guard_pass = serial.ok() && parallel.ok() && identical;

  std::printf("check bench (%llu cases, %llu checks at --iterations %llu)\n",
              static_cast<unsigned long long>(cases),
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(options.iterations));
  std::printf("  serial:   %8.1f ms  (%.0f cases/s)\n", serial_ms, cases_per_sec);
  std::printf("  threads4: %8.1f ms  (speedup %.1fx)\n", parallel_ms,
              parallel_ms > 0 ? serial_ms / parallel_ms : 0.0);
  for (const check::EngineStats& s : serial.stats) {
    std::printf("  %-12s %8llu cases  %10llu checks\n",
                std::string(check::engine_name(s.engine)).c_str(),
                static_cast<unsigned long long>(s.cases),
                static_cast<unsigned long long>(s.checks));
  }
  std::printf("determinism guard (clean run, identical across threads): %s\n",
              guard_pass ? "PASS" : "FAIL");

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("check");
  w.key("iterations").value(static_cast<std::uint64_t>(options.iterations));
  w.key("cases").value(cases);
  w.key("checks").value(checks);
  w.key("serial_ms").value(serial_ms);
  w.key("threads4_ms").value(parallel_ms);
  w.key("cases_per_sec").value(cases_per_sec);
  w.key("speedup").value(parallel_ms > 0 ? serial_ms / parallel_ms : 0.0);
  w.key("engines").begin_array();
  for (const check::EngineStats& s : serial.stats) {
    w.begin_object();
    w.key("engine").value(check::engine_name(s.engine));
    w.key("cases").value(s.cases);
    w.key("checks").value(s.checks);
    w.key("failures").value(s.failures);
    w.end_object();
  }
  w.end_array();
  w.key("outputs_identical").value(identical);
  w.key("guard_pass").value(guard_pass);
  w.end_object();
  std::ofstream(out_path) << w.str() << "\n";
  std::printf("wrote %s\n", out_path);
  return guard_pass ? 0 : 1;
}

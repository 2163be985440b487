// Deterministic self-check subsystem (the engine behind `cen check`).
//
// Four in-process differential-fuzz / invariant engines hunt for the bug
// classes that silently corrupt measurement results:
//
//   round-trip    structure-aware mutational fuzzing of every parse ∘
//                 serialize pair (IPv4/TCP/UDP/ICMP/DNS codecs, HTTP
//                 requests, TLS ClientHellos, report JSON codecs, the
//                 core JSON escaper);
//   invariant     netsim conservation laws under randomized fault plans
//                 (every ICMP quote parses and matches the probe, fault
//                 counters for disabled knobs stay zero, same-seed
//                 replays are byte-identical);
//   cache-replay  campaign runs against randomly truncated / corrupted
//                 result caches must produce byte-identical output or
//                 cleanly invalidate — never crash, never silently
//                 answer wrong;
//   ml-oracle     ml/stats, DBSCAN and random-forest MDI cross-checked
//                 against brute-force reference implementations.
//
// Everything is reproducible: each case derives its RNG from
// (engine, case seed) alone, so any failure replays from the one-line
// `cen check --engine E --seed N` command printed with it, independent of
// thread count or which other cases ran. Reports never mention thread
// count, so output is byte-identical across --threads values.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cen::check {

enum class Engine : std::uint8_t {
  kRoundTrip,
  kInvariant,
  kCacheReplay,
  kMlOracle,
  /// Worldgen invariants: prefix pools disjoint, AS graph connected,
  /// endpoint→AS membership consistent, and the same (spec, seed) pair
  /// regenerates a byte-identical world at any thread count.
  kWorldGen,
  /// Ambiguity-fingerprinting invariants: inert ReassemblyQuirks are
  /// byte-identical to the pre-reassembly per-packet path, same-seed
  /// cenambig replays are byte-identical, and the discrepancy vector is
  /// stable under a permuted probe execution order.
  kAmbig,
  /// Longitudinal invariants: evolution replay identity (same plan + seed
  /// + epoch on independent builds gives identical network fingerprints
  /// and churn), inert plans and epoch 0 leave the baseline untouched,
  /// EvolutionPlan/EpochDiff JSON round-trips, and CKMS quantile sketches
  /// stay inside their rank-error bounds (solo and shard-merged).
  kLongit,
  /// Hidden engine with a deliberately planted failure (fails whenever
  /// the mutation budget is >= 3). Excluded from all_engines(); exists so
  /// tests can prove the harness catches, reproduces and minimizes a bug.
  kSelfTest,
};

std::string_view engine_name(Engine e);
std::optional<Engine> engine_from_name(std::string_view name);
/// The engines `--all` runs (kSelfTest excluded).
const std::vector<Engine>& all_engines();

/// One failed check, carrying everything needed to replay it.
struct CheckFailure {
  Engine engine = Engine::kRoundTrip;
  std::uint64_t seed = 0;  // case seed: replays via run_case(engine, seed, ...)
  std::string target;      // which codec / invariant / oracle tripped
  std::string detail;
  int budget = 0;            // mutation budget in effect when it failed
  int minimized_budget = 0;  // smallest budget that still fails (== budget
                             // when minimization is off or didn't shrink)

  /// The one-line reproduction command.
  std::string repro() const;
};

struct EngineStats {
  Engine engine = Engine::kRoundTrip;
  std::uint64_t cases = 0;
  std::uint64_t checks = 0;
  std::uint64_t failures = 0;
};

struct CheckOptions {
  /// Engines to run; empty = all_engines().
  std::vector<Engine> engines;
  /// Round-trip case count; the other engines scale from it (see
  /// engine_case_count) because their cases cost orders of magnitude more.
  std::uint64_t iterations = 1000;
  std::uint64_t seed = 1;
  /// Workers as scenario::resolve_threads reads them (-1 hardware, 0
  /// inline, N a pool of N). Forbidden from influencing results.
  int threads = 0;
  /// Mutations applied per mutational sub-check (and the planted
  /// self-test threshold's ceiling).
  int mutation_budget = 8;
  /// Shrink each failure's budget to the smallest that still fails.
  bool minimize = true;
  /// Failures to keep in full detail (the rest still count in stats).
  std::size_t max_failures = 64;
};

struct CheckReport {
  std::uint64_t seed = 1;
  std::uint64_t iterations = 0;
  int mutation_budget = 0;
  std::vector<EngineStats> stats;
  std::vector<CheckFailure> failures;
  /// Failures beyond max_failures, counted but not detailed.
  std::uint64_t dropped_failures = 0;

  bool ok() const;
  /// Deterministic JSON document (never mentions thread count).
  std::string to_json() const;
  /// Human-readable digest (also thread-independent).
  std::string summary() const;
};

/// Run the configured engines and collect stats + (minimized) failures.
CheckReport run_checks(const CheckOptions& options);

/// Replay one case — the reproduction entry point behind
/// `cen check --engine E --seed N`. Failures are appended to the returned
/// vector; when `checks` is non-null the case's check count is added.
std::vector<CheckFailure> run_case(Engine engine, std::uint64_t case_seed, int budget,
                                   std::uint64_t* checks = nullptr);

/// Cases an engine runs for a given round-trip iteration count.
std::uint64_t engine_case_count(Engine engine, std::uint64_t iterations);

}  // namespace cen::check

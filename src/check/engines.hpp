// Internal engine interface for the check subsystem: the per-case context
// handed to each engine, plus the per-engine entry points check.cpp
// dispatches to. Not installed API — tools and tests go through check.hpp.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cenambig/cenambig.hpp"
#include "cenfuzz/cenfuzz.hpp"
#include "cenprobe/fingerprints.hpp"
#include "centrace/centrace.hpp"
#include "check/check.hpp"
#include "core/rng.hpp"

namespace cen::check {

/// Everything one case needs: a private RNG derived from (engine, case
/// seed) alone, the mutation budget, and the failure sink. Engines call
/// expect() for every invariant they assert; the check count is what the
/// report's stats aggregate.
struct CaseContext {
  Engine engine = Engine::kRoundTrip;
  std::uint64_t case_seed = 0;
  int budget = 0;
  Rng rng{0};
  std::uint64_t checks = 0;
  std::vector<CheckFailure>* failures = nullptr;

  void expect(bool ok, std::string_view target, std::string detail) {
    ++checks;
    if (!ok) fail(target, std::move(detail));
  }
  void fail(std::string_view target, std::string detail) {
    if (failures == nullptr) return;
    CheckFailure f;
    f.engine = engine;
    f.seed = case_seed;
    f.target = std::string(target);
    f.detail = std::move(detail);
    f.budget = budget;
    f.minimized_budget = budget;
    failures->push_back(std::move(f));
  }
};

/// Engine-distinguishing salt folded into each case's RNG seed.
std::uint64_t engine_salt(Engine e);

void run_roundtrip_case(CaseContext& ctx);
void run_invariant_case(CaseContext& ctx);
void run_cache_replay_case(CaseContext& ctx);
void run_ml_oracle_case(CaseContext& ctx);
void run_worldgen_case(CaseContext& ctx);
void run_ambig_case(CaseContext& ctx);
void run_longit_case(CaseContext& ctx);
void run_selftest_case(CaseContext& ctx);

/// Random, structurally valid reports of each kind the round-trip engine
/// feeds the JSON report codecs. Doubles sit on a thousandth grid, so
/// their %.6g encoding is exact.
trace::CenTraceReport random_trace_report(Rng& rng);
fuzz::CenFuzzReport random_fuzz_report(Rng& rng);
probe::DeviceProbeReport random_probe_report(Rng& rng);
ambig::AmbigReport random_ambig_report(Rng& rng);

}  // namespace cen::check

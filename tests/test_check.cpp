// The check subsystem's own contract: engines run clean on fixed seeds,
// failures reproduce exactly from their printed seed, the minimizer
// shrinks a planted failure to its true threshold, and reports are
// byte-identical across thread counts (the property `cen check --threads`
// is allowed to change wall time, never output).
#include <gtest/gtest.h>

#include "check/check.hpp"
#include "core/json.hpp"

using namespace cen;
using check::CheckOptions;
using check::CheckReport;
using check::Engine;

TEST(Check, AllEnginesSmokeClean) {
  CheckOptions options;
  options.iterations = 60;
  options.seed = 1;
  const CheckReport report = check::run_checks(options);
  EXPECT_TRUE(report.ok()) << report.summary();
  ASSERT_EQ(report.stats.size(), check::all_engines().size());
  for (const check::EngineStats& s : report.stats) {
    EXPECT_GT(s.cases, 0u) << check::engine_name(s.engine);
    EXPECT_GT(s.checks, 0u) << check::engine_name(s.engine);
  }
}

TEST(Check, ReportIdenticalAcrossThreadCounts) {
  std::string json[5];
  std::string summary[5];
  const int threads[5] = {0, -1, 1, 4, 8};
  for (int i = 0; i < 5; ++i) {
    CheckOptions options;
    options.iterations = 60;
    options.seed = 5;
    options.threads = threads[i];
    const CheckReport report = check::run_checks(options);
    json[i] = report.to_json();
    summary[i] = report.summary();
  }
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(json[0], json[i]) << "threads " << threads[i];
    EXPECT_EQ(summary[0], summary[i]) << "threads " << threads[i];
  }
}

TEST(Check, SelfTestPlantedBugIsCaught) {
  CheckOptions options;
  options.engines = {Engine::kSelfTest};
  options.iterations = 4;
  options.seed = 123;
  const CheckReport report = check::run_checks(options);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.failures.size(), 4u);
  // The printed repro names the engine and the case seed.
  EXPECT_NE(report.failures[0].repro().find("--engine self-test --seed 123"),
            std::string::npos)
      << report.failures[0].repro();
  // ...as a command the `cen` front end runs.
  EXPECT_EQ(report.failures[0].repro().rfind("cen check --engine ", 0), 0u)
      << report.failures[0].repro();
  // The planted bug fires exactly when the budget reaches 3, and the
  // minimizer must find that threshold.
  for (const check::CheckFailure& f : report.failures) {
    EXPECT_EQ(f.minimized_budget, 3) << f.repro();
  }
}

TEST(Check, FailureReproducesFromItsSeed) {
  // Replaying the case seed from a failure, alone, yields the same
  // failure — independent of how many cases the original run had.
  std::vector<check::CheckFailure> first = check::run_case(Engine::kSelfTest, 123, 8);
  std::vector<check::CheckFailure> again = check::run_case(Engine::kSelfTest, 123, 8);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(first[0].target, again[0].target);
  EXPECT_EQ(first[0].detail, again[0].detail);
  // Below the planted threshold the case is clean.
  EXPECT_TRUE(check::run_case(Engine::kSelfTest, 123, 2).empty());
}

TEST(Check, ReportJsonIsValid) {
  CheckOptions options;
  options.engines = {Engine::kSelfTest};
  options.iterations = 2;
  options.seed = 7;
  const CheckReport report = check::run_checks(options);
  EXPECT_TRUE(json_valid(report.to_json())) << report.to_json();
  auto doc = json_parse(report.to_json());
  ASSERT_NE(doc, nullptr);
  const JsonValue* tool = doc->find("tool");
  ASSERT_TRUE(tool != nullptr && tool->is_string());
  EXPECT_EQ(tool->string, "cencheck");
  const JsonValue* ok = doc->find("ok");
  ASSERT_TRUE(ok != nullptr && ok->is_bool());
  EXPECT_FALSE(ok->boolean);
}

TEST(Check, EngineNamesRoundTrip) {
  for (Engine e : check::all_engines()) {
    const auto back = check::engine_from_name(check::engine_name(e));
    ASSERT_TRUE(back.has_value()) << check::engine_name(e);
    EXPECT_EQ(*back, e);
  }
  EXPECT_FALSE(check::engine_from_name("no-such-engine").has_value());
  // The self-test engine is addressable but hidden from --all.
  EXPECT_EQ(check::engine_from_name("self-test"), Engine::kSelfTest);
  for (Engine e : check::all_engines()) EXPECT_NE(e, Engine::kSelfTest);
}

TEST(Check, CaseCountsScalePerEngine) {
  EXPECT_EQ(check::engine_case_count(Engine::kRoundTrip, 1000), 1000u);
  EXPECT_EQ(check::engine_case_count(Engine::kInvariant, 1000), 50u);
  EXPECT_EQ(check::engine_case_count(Engine::kMlOracle, 1000), 100u);
  // Every engine runs at least one case, however small the budget.
  for (Engine e : check::all_engines()) {
    EXPECT_GE(check::engine_case_count(e, 1), 1u) << check::engine_name(e);
  }
}

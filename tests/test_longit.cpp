// Longitudinal measurement service: epoch-loop golden identity across
// worker counts, killed-run resume via the shared JSONL cache, zero-churn
// epochs executing zero tool tasks, epoch-diff semantics and JSON
// round-trips, campaign-spec evolution plumbing, and the CKMS quantile
// sketch's accuracy / determinism contracts (including the named
// regressions this PR fixes). Runs under the TSan preset (`ctest -L
// longit`) to cover the multi-epoch campaign fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/rng.hpp"
#include "longit/evolve.hpp"
#include "longit/longit.hpp"
#include "obs/ckms.hpp"
#include "report/aggregate.hpp"
#include "report/epoch_diff.hpp"
#include "scenario/country.hpp"

using namespace cen;

namespace {

longit::LongitSpec small_spec() {
  longit::LongitSpec spec;
  spec.base.countries = {scenario::Country::kAZ};
  spec.base.scale = scenario::Scale::kSmall;
  spec.base.trace.repetitions = 3;
  spec.base.max_endpoints = 2;
  spec.base.max_domains = 1;
  spec.base.fuzz_max_endpoints = 2;
  spec.base.batch_size = 3;
  spec.epochs = 3;
  longit::EvolutionPlan plan;
  plan.seed = 11;
  plan.rule_add_prob = 0.5;
  plan.vendor_upgrade_prob = 0.25;
  plan.blockpage_swap_prob = 0.25;
  plan.coverage_drift_prob = 0.25;
  spec.base.evolution = plan;
  return spec;
}

std::string temp_cache(const std::string& name) {
  std::string path = ::testing::TempDir() + "cendevice_longit_" + name + ".jsonl";
  std::remove(path.c_str());
  return path;
}

report::EndpointEpochState state(const std::string& endpoint, bool blocked,
                                 const std::string& vendor = "", int ttl = -1) {
  report::EndpointEpochState s;
  s.site = "AZ";
  s.endpoint = endpoint;
  s.domain = "x.example";
  s.protocol = "http";
  s.blocked = blocked;
  if (blocked) {
    s.blocking_type = "rst";
    s.vendor = vendor;
    s.blocking_hop_ttl = ttl;
  }
  s.endpoint_hop_distance = 9;
  return s;
}

}  // namespace

// ---------------------------------------------------------- epoch loop

TEST(Longit, GoldenAcrossThreads) {
  const longit::LongitSpec spec = small_spec();
  std::string golden;
  for (int threads : {0, 1, 2, 8}) {
    campaign::RunControl control;
    control.threads = threads;
    longit::LongitResult result = longit::run(spec, control);
    ASSERT_TRUE(result.complete);
    ASSERT_EQ(result.epochs_completed, spec.epochs);
    if (golden.empty()) {
      golden = result.to_json();
    } else {
      EXPECT_EQ(result.to_json(), golden) << "threads=" << threads;
    }
  }
}

TEST(Longit, KilledRunResumesByteIdentical) {
  const longit::LongitSpec spec = small_spec();

  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = temp_cache("uninterrupted");
  const std::string golden = longit::run(spec, control).to_json();

  // Simulate a crash-loop: one batch per invocation against one cache.
  campaign::RunControl drip;
  drip.threads = 2;
  drip.cache_path = temp_cache("resume");
  drip.max_batches = 1;
  longit::LongitResult result;
  int attempts = 0;
  do {
    result = longit::run(spec, drip);
    ASSERT_LT(++attempts, 200) << "resume loop did not converge";
  } while (!result.complete);
  EXPECT_EQ(result.to_json(), golden);

  std::remove(control.cache_path.c_str());
  std::remove(drip.cache_path.c_str());
}

TEST(Longit, ZeroChurnEpochsExecuteZeroToolTasks) {
  longit::LongitSpec spec = small_spec();
  spec.base.evolution.reset();  // no churn: epochs 1..N identical to 0

  campaign::RunControl control;
  control.threads = 2;
  control.cache_path = temp_cache("warm");
  longit::LongitResult result = longit::run(spec, control);
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.epochs.size(), 3u);

  EXPECT_GT(result.epochs[0].executed, 0u);
  for (int e : {1, 2}) {
    EXPECT_EQ(result.epochs[e].executed, 0u) << "epoch " << e;
    EXPECT_EQ(result.epochs[e].cache_hits, result.epochs[0].executed);
    EXPECT_EQ(result.epochs[e].records_fingerprint,
              result.epochs[0].records_fingerprint);
    EXPECT_FALSE(result.epochs[e].diff.any());
  }
  std::remove(control.cache_path.c_str());
}

TEST(Longit, ChurnedEpochsReportGroundTruth) {
  const longit::LongitSpec spec = small_spec();
  campaign::RunControl control;
  control.threads = 2;
  longit::LongitResult result = longit::run(spec, control);
  ASSERT_TRUE(result.complete);

  // The collected churn must equal a direct ground-truth replay.
  std::vector<longit::EpochChurn> replay =
      longit::ground_truth_churn(spec.base, spec.epochs - 1);
  std::size_t collected = 0;
  for (const longit::EpochSummary& e : result.epochs) collected += e.churn.size();
  EXPECT_EQ(collected, replay.size());
  for (const longit::EpochSummary& e : result.epochs) {
    for (const longit::EpochChurn& ec : e.churn) {
      EXPECT_EQ(ec.epoch, e.epoch);
      EXPECT_TRUE(ec.any());
    }
  }
}

TEST(Longit, EvolutionSeedSaturates) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::pair<const char*, std::uint64_t> extremes[] = {
      {"-1", 0}, {"1e300", max}, {"-1e300", 0}};
  for (const auto& [x, want] : extremes) {
    auto plan = longit::evolution_from_json(std::string(R"({"seed":)") + x + "}");
    ASSERT_TRUE(plan.has_value()) << x;
    EXPECT_EQ(plan->seed, want) << x;
  }
}

TEST(Longit, EvolutionJoinsSpecFingerprintAndJson) {
  campaign::CampaignSpec plain = small_spec().base;
  plain.evolution.reset();
  campaign::CampaignSpec evolved = small_spec().base;

  // The plan and the epoch both join the spec's JSON.
  EXPECT_NE(campaign::to_json(plain), campaign::to_json(evolved));
  campaign::CampaignSpec later = evolved;
  later.evolution_epoch = 2;
  EXPECT_NE(campaign::to_json(evolved), campaign::to_json(later));

  // And both survive the spec JSON round-trip.
  auto loaded = campaign::spec_from_json(campaign::to_json(later));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->evolution, later.evolution);
  EXPECT_EQ(loaded->evolution_epoch, 2);
  EXPECT_EQ(campaign::to_json(*loaded), campaign::to_json(later));
}

// ----------------------------------------------------------- epoch diff

TEST(EpochDiff, CategorizesChanges) {
  std::vector<report::EndpointEpochState> prev = {
      state("10.0.0.1", true, "Fortinet", 4),   // stays blocked, vendor flips
      state("10.0.0.2", true, "", 5),           // becomes unblocked
      state("10.0.0.3", false),                 // becomes blocked
      state("10.0.0.4", true, "Cisco", 3),      // hop moves 3 -> 6
      state("10.0.0.5", true, "", 2),           // vanishes from next
  };
  std::vector<report::EndpointEpochState> next = {
      state("10.0.0.1", true, "Palo Alto", 4),
      state("10.0.0.2", false),
      state("10.0.0.3", true, "", 7),
      state("10.0.0.4", true, "Cisco", 6),
      state("10.0.0.6", true, "", 8),           // new row, already blocked
  };
  report::EpochDiff diff = report::diff_epochs(prev, next, 0, 1);

  ASSERT_EQ(diff.newly_blocked.size(), 2u);
  EXPECT_EQ(diff.newly_blocked[0].endpoint, "10.0.0.3");
  EXPECT_EQ(diff.newly_blocked[1].endpoint, "10.0.0.6");
  ASSERT_EQ(diff.newly_unblocked.size(), 2u);
  EXPECT_EQ(diff.newly_unblocked[0].endpoint, "10.0.0.2");
  EXPECT_EQ(diff.newly_unblocked[1].endpoint, "10.0.0.5");  // vanished row
  ASSERT_EQ(diff.vendor_changes.size(), 1u);
  EXPECT_EQ(diff.vendor_changes[0].from, "Fortinet");
  EXPECT_EQ(diff.vendor_changes[0].to, "Palo Alto");
  ASSERT_EQ(diff.location_moves.size(), 1u);
  EXPECT_EQ(diff.location_moves[0].from_ttl, 3);
  EXPECT_EQ(diff.location_moves[0].to_ttl, 6);
  EXPECT_EQ(diff.location_moves[0].magnitude(), 3);
  EXPECT_EQ(diff.move_magnitude_quantile(0.5), 3);
}

TEST(EpochDiff, SelfDiffEmptyAndJsonRoundTrip) {
  std::vector<report::EndpointEpochState> rows = {
      state("10.0.0.1", true, "Fortinet", 4), state("10.0.0.2", false)};
  EXPECT_FALSE(report::diff_epochs(rows, rows, 3, 4).any());

  report::EpochDiff diff = report::diff_epochs({state("10.0.0.2", true, "", 5)},
                                               rows, 3, 4);
  auto round = report::epoch_diff_from_json(report::to_json(diff));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(*round, diff);
}

// -------------------------------------------------------- CKMS sketches

// Named regression: the min-over-targets "targeted" CKMS invariant lets a
// tuple just below rank 0.99n carry p90-sized uncertainty, so p99 queries
// undershot their 0.5% rank-error bound by 3-4x (the perks-style accuracy
// hole). The biased invariant (f = 2 * eps/phi_min * r) fixes it; this
// stream reproduced the failure before the fix.
TEST(Ckms, Regression_TargetedInvariantP99WithinBound) {
  Rng rng(1);
  const std::size_t n = 1557;
  std::vector<std::uint64_t> samples;
  for (std::size_t i = 0; i < n; ++i) samples.push_back(rng.uniform(10'000));
  obs::CkmsQuantiles q;
  for (std::uint64_t v : samples) q.observe(v);
  std::sort(samples.begin(), samples.end());

  for (const obs::QuantileTarget& t : q.targets()) {
    const double target = std::max<double>(
        1.0, std::ceil(t.percent / 100.0 * static_cast<double>(n)));
    const std::uint64_t v = q.query(t.percent);
    const long lo = std::lower_bound(samples.begin(), samples.end(), v) -
                    samples.begin() + 1;
    const long hi =
        std::upper_bound(samples.begin(), samples.end(), v) - samples.begin();
    const double tol = t.rank_error * static_cast<double>(n) + 1.0;
    EXPECT_LE(static_cast<double>(lo), target + tol) << "p" << t.percent;
    EXPECT_GE(static_cast<double>(hi), target - tol) << "p" << t.percent;
  }
}

TEST(Ckms, DeterministicReplayAndBoundedMemory) {
  Rng rng(9);
  obs::CkmsQuantiles a, b;
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t v = rng.uniform(1'000'000);
    a.observe(v);
    b.observe(v);
  }
  for (int p : {50, 90, 99}) EXPECT_EQ(a.query(p), b.query(p));
  EXPECT_EQ(a.count(), 100'000u);
  EXPECT_EQ(a.sum(), b.sum());
  // Bounded memory: tuple count grows like (1/eps) * log(eps * n), far
  // below the stream length.
  EXPECT_LT(a.tuple_count(), 4000u);
}

TEST(Ckms, MergeWithinSummedBoundAndChecksTargets) {
  Rng rng(4);
  const std::size_t n = 4000;
  std::vector<std::uint64_t> samples;
  obs::CkmsQuantiles lo, hi;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = rng.uniform(50'000);
    samples.push_back(v);
    (i < n / 2 ? lo : hi).observe(v);
  }
  lo.merge_from(hi);
  EXPECT_EQ(lo.count(), n);
  std::sort(samples.begin(), samples.end());
  for (const obs::QuantileTarget& t : lo.targets()) {
    const double target =
        std::ceil(t.percent / 100.0 * static_cast<double>(n));
    const std::uint64_t v = lo.query(t.percent);
    const long lo_rank = std::lower_bound(samples.begin(), samples.end(), v) -
                         samples.begin() + 1;
    const long hi_rank =
        std::upper_bound(samples.begin(), samples.end(), v) - samples.begin();
    // One shard merge: at most the sum of the operands' bounds.
    const double tol = 2.0 * t.rank_error * static_cast<double>(n) + 1.0;
    EXPECT_LE(static_cast<double>(lo_rank), target + tol) << "p" << t.percent;
    EXPECT_GE(static_cast<double>(hi_rank), target - tol) << "p" << t.percent;
  }

  obs::CkmsQuantiles other({{75, 0.01}});
  EXPECT_THROW(lo.merge_from(other), std::logic_error);
}

TEST(Ckms, EmptyAndDegenerateQueries) {
  obs::CkmsQuantiles q;
  EXPECT_EQ(q.query(50), 0u);
  q.observe(42);
  EXPECT_EQ(q.query(0), 42u);
  EXPECT_EQ(q.query(100), 42u);
  EXPECT_THROW(obs::CkmsQuantiles(std::vector<obs::QuantileTarget>{}),
               std::logic_error);
  EXPECT_THROW(obs::CkmsQuantiles({{101, 0.01}}), std::logic_error);
  EXPECT_THROW(obs::CkmsQuantiles({{50, 0.0}}), std::logic_error);
}

// ------------------------------------------------- aggregate regression

// Named regression: hops_quantile used floor(f * (size - 1)), a
// truncation that under-reports interior quantiles (and, with no
// clamping, out-of-range f walked off the array). quantile_index now
// implements clamped nearest-rank: index ceil(f * n) - 1.
TEST(Aggregate, Regression_QuantileTruncationBias) {
  using report::quantile_index;
  // Nearest-rank: ceil(0.34 * 3) = 2 -> second-smallest (old code gave
  // floor(0.34 * 2) = 0, the minimum).
  EXPECT_EQ(quantile_index(0.34, 3), 1u);
  EXPECT_EQ(quantile_index(0.5, 4), 1u);
  EXPECT_EQ(quantile_index(0.75, 4), 2u);
  // Clamps: f outside [0, 1] and NaN must stay in range.
  EXPECT_EQ(quantile_index(-0.5, 5), 0u);
  EXPECT_EQ(quantile_index(2.0, 5), 4u);
  EXPECT_EQ(quantile_index(std::numeric_limits<double>::quiet_NaN(), 5), 0u);
  EXPECT_EQ(quantile_index(0.5, 0), 0u);
}

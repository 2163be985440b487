// Tomography + degradation ladder (ISSUE 6 tentpole): the minimal-
// blocking-link-set solver, the CenTrace escalation modes over the
// silent-router scenario family, the chaos-style accuracy harness
// against netsim ground truth, and thread-count byte-identity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "centrace/degrade.hpp"
#include "obs/observer.hpp"
#include "report/json_report.hpp"
#include "scenario/pipeline.hpp"
#include "scenario/silent.hpp"
#include "tomography/tomography.hpp"

using namespace cen;
using namespace cen::tomo;

namespace {

PathObservation row(std::vector<sim::NodeId> path, bool blocked, int vantage = 0) {
  PathObservation o;
  o.path = std::move(path);
  o.blocked = blocked;
  o.vantage = vantage;
  return o;
}

/// The (ip_a, ip_b) pair of the scenario's ground-truth censored link,
/// in the emitter's normalized (NodeId a < b) order.
std::pair<net::Ipv4Address, net::Ipv4Address> true_link_ips(
    const scenario::SilentScenario& s) {
  const sim::Topology& topo = s.network->topology();
  return {topo.node_ip(s.true_link.a), topo.node_ip(s.true_link.b)};
}

bool candidates_contain_true_link(const trace::CenTraceReport& r,
                                  const scenario::SilentScenario& s) {
  auto [a, b] = true_link_ips(s);
  for (const trace::BlamedLink& link : r.degradation.candidate_links) {
    if ((link.ip_a == a && link.ip_b == b) || (link.ip_a == b && link.ip_b == a)) {
      return true;
    }
  }
  return false;
}

trace::CenTraceOptions fast_opts() {
  trace::CenTraceOptions opts;
  opts.repetitions = 3;  // the ladder needs the verdict, not 11-rep variance
  return opts;
}

trace::DegradationPlan scenario_plan(const scenario::SilentScenario& s) {
  trace::DegradationPlan plan;
  plan.tomography = true;
  plan.vantages.assign(s.vantages.begin() + 1, s.vantages.end());
  return plan;
}

}  // namespace

// ---- Solver ------------------------------------------------------------

TEST(TomographySolver, SingleBlockedPathBlamesEveryLink) {
  ObservationMatrix m;
  m.add(row({1, 2, 3, 4}, true));
  TomographyResult r = solve(m);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.cover_size, 1);
  ASSERT_EQ(r.candidates.size(), 3u);  // (1,2) (2,3) (3,4), nothing exonerated
  for (const LinkBlame& c : r.candidates) {
    EXPECT_NEAR(c.confidence, 1.0 / 3.0, 1e-12);
    EXPECT_EQ(c.blocked_paths, 1);
  }
}

TEST(TomographySolver, CleanRowExoneratesSharedPrefix) {
  ObservationMatrix m;
  m.add(row({1, 2, 3}, true));
  m.add(row({1, 2}, false));  // a test probe got through (1,2)
  TomographyResult r = solve(m);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.cover_size, 1);
  ASSERT_EQ(r.candidates.size(), 1u);
  EXPECT_EQ(r.candidates[0].link, LinkId(2, 3));
  EXPECT_DOUBLE_EQ(r.candidates[0].confidence, 1.0);
}

TEST(TomographySolver, DisjointBlockersNeedCoverOfTwo) {
  ObservationMatrix m;
  m.add(row({1, 2}, true));
  m.add(row({3, 4}, true));
  TomographyResult r = solve(m);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(r.cover_size, 2);
  ASSERT_EQ(r.candidates.size(), 2u);
  // The only minimal cover is {(1,2), (3,4)}: both links are certain.
  EXPECT_DOUBLE_EQ(r.candidates[0].confidence, 1.0);
  EXPECT_DOUBLE_EQ(r.candidates[1].confidence, 1.0);
}

TEST(TomographySolver, FullyExoneratedBlockedRowIsUnexplained) {
  ObservationMatrix m;
  m.add(row({1, 2, 3}, true));
  m.add(row({1, 2, 3}, false));  // same path also succeeded: not a link cause
  TomographyResult r = solve(m);
  EXPECT_FALSE(r.solved);
  EXPECT_EQ(r.blocked_observations, 1);
  EXPECT_EQ(r.unexplained_observations, 1);
  EXPECT_TRUE(r.candidates.empty());
}

TEST(TomographySolver, LinkIdNormalizesDirection) {
  EXPECT_EQ(LinkId(7, 3), LinkId(3, 7));
  ObservationMatrix m;
  m.add(row({1, 2}, true));
  m.add(row({2, 1}, false));  // reverse direction still exonerates
  TomographyResult r = solve(m);
  EXPECT_FALSE(r.solved);
  EXPECT_EQ(r.unexplained_observations, 1);
}

TEST(TomographySolver, RowOrderAndVantageLabelsDoNotMatter) {
  ObservationMatrix forward;
  forward.add(row({1, 2, 3, 4}, true, 0));
  forward.add(row({1, 2, 5, 4}, true, 0));
  forward.add(row({6, 2, 5, 4}, false, 1));
  ObservationMatrix reversed;
  reversed.add(row({6, 2, 5, 4}, false, 2));
  reversed.add(row({1, 2, 5, 4}, true, 1));
  reversed.add(row({1, 2, 3, 4}, true, 0));
  TomographyResult a = solve(forward);
  TomographyResult b = solve(reversed);
  ASSERT_EQ(a.solved, b.solved);
  EXPECT_EQ(a.cover_size, b.cover_size);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].link, b.candidates[i].link);
    EXPECT_DOUBLE_EQ(a.candidates[i].confidence, b.candidates[i].confidence);
  }
}

TEST(TomographySolver, ProbeRoundDelaysAreSeededSubstreams) {
  const std::vector<SimTime> a = probe_round_delays(42, 0x1, 0, 6, 1000);
  const std::vector<SimTime> b = probe_round_delays(42, 0x1, 0, 6, 1000);
  const std::vector<SimTime> c = probe_round_delays(42, 0x1, 1, 6, 1000);
  EXPECT_EQ(a, b);       // pure function of (seed, salt, vantage)
  EXPECT_NE(a, c);       // vantages get disjoint substreams
  ASSERT_EQ(a.size(), 6u);
  for (SimTime d : a) {
    EXPECT_GE(d, 1000u);       // base spacing
    EXPECT_LT(d, 2000u);       // plus jitter in [0, spacing)
  }
}

// ---- Degradation ladder over the silent-router family ------------------

TEST(Degradation, CleanScenarioStaysFullMode) {
  scenario::SilentOptions so;
  so.blackhole_probability = 0.0;
  scenario::SilentScenario s = scenario::make_silent(so, 7);
  trace::CenTraceReport r = trace::measure_with_degradation(
      *s.network, s.vantages[0], s.endpoint, s.test_domain, s.control_domain,
      fast_opts(), nullptr);
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.degradation.mode, trace::DegradationMode::kFull);
  EXPECT_GT(r.degradation.icmp_answer_rate, 0.9);
  EXPECT_TRUE(r.degradation.candidate_links.empty());
  EXPECT_EQ(r.degradation.vantage_count, 1);
}

TEST(Degradation, TotalBlackholeWithoutPlanIsUnlocalized) {
  scenario::SilentOptions so;
  so.blackhole_probability = 1.0;
  scenario::SilentScenario s = scenario::make_silent(so, 7);
  trace::CenTraceReport r = trace::measure_with_degradation(
      *s.network, s.vantages[0], s.endpoint, s.test_domain, s.control_domain,
      fast_opts(), nullptr);
  EXPECT_TRUE(r.blocked);
  EXPECT_FALSE(r.blocking_hop_ip.has_value());
  EXPECT_EQ(r.degradation.mode, trace::DegradationMode::kUnlocalized);
  EXPECT_LT(r.degradation.icmp_answer_rate, 0.1);
}

TEST(Degradation, TotalBlackholeEscalatesToTomography) {
  scenario::SilentOptions so;
  so.blackhole_probability = 1.0;
  scenario::SilentScenario s = scenario::make_silent(so, 7);
  trace::DegradationPlan plan = scenario_plan(s);
  trace::CenTraceReport r = trace::measure_with_degradation(
      *s.network, s.vantages[0], s.endpoint, s.test_domain, s.control_domain,
      fast_opts(), &plan);
  EXPECT_TRUE(r.blocked);
  EXPECT_EQ(r.degradation.mode, trace::DegradationMode::kTomography);
  EXPECT_TRUE(r.degradation.tomography_solved);
  EXPECT_EQ(r.degradation.vantage_count, 3);
  EXPECT_GT(r.degradation.tomography_observations, 0);
  EXPECT_TRUE(candidates_contain_true_link(r, s));
  // The candidate set is the irreducible ambiguity: the censored link
  // plus links indistinguishable from it given the topology (every flow
  // crossing (s0a, s0b) also crosses (s0b, agg)) — small, not a dump.
  EXPECT_LE(r.degradation.candidate_links.size(), 4u);
  for (const trace::BlamedLink& link : r.degradation.candidate_links) {
    EXPECT_GT(link.confidence, 0.0);
    EXPECT_LE(link.confidence, 1.0);
    EXPECT_GT(link.blocked_paths, 0);
  }
}

TEST(Degradation, ModeNamesRoundTrip) {
  using trace::DegradationMode;
  EXPECT_EQ(trace::degradation_mode_name(DegradationMode::kFull), "full");
  EXPECT_EQ(trace::degradation_mode_name(DegradationMode::kIcmpDegraded),
            "icmp_degraded");
  EXPECT_EQ(trace::degradation_mode_name(DegradationMode::kTomography), "tomography");
  EXPECT_EQ(trace::degradation_mode_name(DegradationMode::kUnlocalized),
            "unlocalized");
}

// ---- Accuracy harness: solver vs ground truth over a blackhole sweep ---

TEST(Degradation, TomographyRecoversTruthWhereCenTraceFails) {
  // Acceptance criterion: across a blackhole-probability sweep at >= 0.8,
  // among seeded trials where full-ICMP CenTrace mislocalizes or returns
  // unlocalized, tomography's candidate set contains the true blocking
  // link in >= 90 %.
  const double probabilities[] = {0.8, 0.9, 1.0};
  int full_failures = 0;
  int tomography_hits = 0;
  for (double p : probabilities) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      scenario::SilentOptions so;
      so.blackhole_probability = p;
      {
        scenario::SilentScenario s = scenario::make_silent(so, seed);
        trace::CenTrace plain(*s.network, s.vantages[0], fast_opts());
        trace::CenTraceReport r =
            plain.measure(s.endpoint, s.test_domain, s.control_domain);
        const net::Ipv4Address censor_ip =
            s.network->topology().node_ip(s.censor_node);
        const bool localized_truth =
            r.blocked && r.blocking_hop_ip.has_value() && *r.blocking_hop_ip == censor_ip;
        if (localized_truth) continue;  // classic CenTrace handled this trial
      }
      ++full_failures;
      scenario::SilentScenario s = scenario::make_silent(so, seed);
      trace::DegradationPlan plan = scenario_plan(s);
      trace::CenTraceReport r = trace::measure_with_degradation(
          *s.network, s.vantages[0], s.endpoint, s.test_domain, s.control_domain,
          fast_opts(), &plan);
      if (r.degradation.mode == trace::DegradationMode::kTomography &&
          candidates_contain_true_link(r, s)) {
        ++tomography_hits;
      }
    }
  }
  ASSERT_GT(full_failures, 0) << "sweep produced no CenTrace failures to recover";
  EXPECT_GE(tomography_hits * 10, full_failures * 9)
      << tomography_hits << "/" << full_failures << " recovered";
}

// ---- Determinism: byte-identical across --threads ----------------------

TEST(Degradation, FanoutReportsAndCountersAreThreadInvariant) {
  scenario::SilentOptions so;
  so.blackhole_probability = 1.0;
  const std::vector<std::string> domains = {"www.blocked.example"};

  std::vector<std::string> blobs;
  std::vector<std::string> metrics;
  for (int threads : {0, 1, 3}) {
    scenario::SilentScenario s = scenario::make_silent(so, 7);
    trace::DegradationPlan plan = scenario_plan(s);
    obs::Observer observer;
    std::vector<trace::CenTraceReport> reports = scenario::run_trace_fanout(
        *s.network, s.vantages[0], {s.endpoint}, domains, s.control_domain,
        fast_opts(), threads, &observer, &plan);
    std::string blob;
    for (const trace::CenTraceReport& r : reports) blob += report::to_json(r) + "\n";
    blobs.push_back(std::move(blob));
    metrics.push_back(observer.metrics().to_prometheus());
  }
  ASSERT_EQ(blobs.size(), 3u);
  EXPECT_EQ(blobs[0], blobs[1]);
  EXPECT_EQ(blobs[0], blobs[2]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(metrics[0], metrics[2]);
  // The degraded path actually ran (the identity is not vacuous).
  EXPECT_NE(blobs[0].find("\"mode\":\"tomography\""), std::string::npos);
  EXPECT_NE(metrics[0].find("tomography"), std::string::npos);
}

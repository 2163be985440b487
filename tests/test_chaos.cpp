// Chaos harness (ISSUE tentpole): run the measurement pipeline over a grid
// of fault profiles against scenario ground truth and assert the tools'
// resilience machinery holds the localisation accuracy the paper's field
// deployments needed.
#include <gtest/gtest.h>

#include <memory>

#include "censor/vendors.hpp"
#include "centrace/centrace.hpp"
#include "obs/observer.hpp"
#include "scenario/pipeline.hpp"
#include "scenario/silent.hpp"

using namespace cen;
using namespace cen::trace;

namespace {

constexpr int kTrials = 10;
constexpr int kDeviceHop = 3;  // ground truth: RST injector at hop 3

/// client - r1..r5 - server line with an RST injector at kDeviceHop.
/// With `ecmp` the hop-2 router gets an equal-cost twin (r2b), giving
/// route flapping an alternative path to churn onto; both branches
/// reconverge at the device hop, so ground truth is unchanged.
struct ChaosNet {
  explicit ChaosNet(std::uint64_t seed, bool ecmp = false) {
    sim::CompactTopologyBuilder topo;
    client = topo.add_node("client", net::Ipv4Address(10, 0, 0, 1));
    sim::NodeId prev = client;
    for (int i = 0; i < 5; ++i) {
      routers[i] = topo.add_node("r" + std::to_string(i + 1),
                                 net::Ipv4Address(10, 0, static_cast<uint8_t>(i + 1), 1));
      topo.add_link(prev, routers[i]);
      prev = routers[i];
    }
    if (ecmp) {
      sim::NodeId r2b = topo.add_node("r2b", net::Ipv4Address(10, 0, 2, 2));
      topo.add_link(routers[0], r2b);
      topo.add_link(r2b, routers[2]);
    }
    server = topo.add_node("server", net::Ipv4Address(10, 0, 9, 1));
    topo.add_link(prev, server);
    geo::IpMetadataDb db;
    db.add_route(net::Ipv4Address(10, 0, 0, 0), 16, {64512, "TRANSIT-AS", "XX"});
    net = std::make_unique<sim::Network>(sim::Topology(topo.build()), std::move(db), seed);
    sim::EndpointProfile profile;
    profile.hosted_domains = {"www.example.org"};
    net->add_endpoint(server, profile);

    censor::DeviceConfig cfg;
    cfg.id = "rst";
    cfg.action = censor::BlockAction::kRstInject;
    cfg.http_rules.add("blocked.example");
    net->attach_device(routers[kDeviceHop - 1], std::make_shared<censor::Device>(cfg));
  }

  CenTraceReport measure() {
    CenTrace tracer(*net, client, CenTraceOptions{});  // paper defaults: 11 reps
    return tracer.measure(net::Ipv4Address(10, 0, 9, 1), "www.blocked.example",
                          "www.example.org");
  }

  sim::NodeId client, server;
  sim::NodeId routers[5];
  std::unique_ptr<sim::Network> net;
};

struct GridResult {
  int localized = 0;   // blocked AND hop AND ip all match ground truth
  int blocked = 0;
  double confidence_sum = 0.0;
  bool any_rate_limit_flag = false;
  bool any_churn_flag = false;
  bool any_loss_recovered = false;
};

GridResult run_grid_cell(const sim::FaultPlan& plan, bool ecmp = false) {
  GridResult out;
  for (int trial = 0; trial < kTrials; ++trial) {
    ChaosNet cn(static_cast<std::uint64_t>(trial + 1), ecmp);
    cn.net->set_fault_plan(plan);
    CenTraceReport r = cn.measure();
    if (r.blocked) ++out.blocked;
    if (r.blocked && r.blocking_hop_ttl == kDeviceHop && r.blocking_hop_ip &&
        *r.blocking_hop_ip == net::Ipv4Address(10, 0, kDeviceHop, 1)) {
      ++out.localized;
    }
    out.confidence_sum += r.confidence.overall;
    out.any_rate_limit_flag |= r.confidence.icmp_rate_limited;
    out.any_churn_flag |= r.confidence.path_churn;
    out.any_loss_recovered |= r.confidence.loss_recovered_probes > 0;
  }
  return out;
}

/// 5 % per-link loss + aggressive per-router ICMP rate limiting: the
/// acceptance-criterion cell of the fault grid.
sim::FaultPlan acceptance_plan() {
  sim::FaultPlan plan;
  plan.default_link.loss = 0.05;
  plan.default_node.icmp_rate_per_sec = 0.0005;  // starves refill between sweeps
  plan.default_node.icmp_burst = 2.0;
  return plan;
}

}  // namespace

TEST(Chaos, CleanGridCellIsPerfect) {
  GridResult r = run_grid_cell(sim::FaultPlan{});
  EXPECT_EQ(r.localized, kTrials);
  EXPECT_EQ(r.blocked, kTrials);
  EXPECT_EQ(r.confidence_sum, static_cast<double>(kTrials));
  EXPECT_FALSE(r.any_loss_recovered);
}

TEST(Chaos, LossPlusIcmpRateLimitingKeepsLocalization) {
  // Acceptance criterion: >= 90 % blocking-hop localisation under 5 % loss
  // with ICMP rate limiting, and every report carries a real confidence.
  GridResult r = run_grid_cell(acceptance_plan());
  EXPECT_GE(r.localized, (kTrials * 9) / 10);
  EXPECT_TRUE(r.any_loss_recovered);  // the adaptive retry layer engaged
  EXPECT_GT(r.confidence_sum, 0.0);
  EXPECT_LT(r.confidence_sum, static_cast<double>(kTrials));  // faults shaded it
}

TEST(Chaos, RateLimitingIsDetectedAndFlagged) {
  sim::FaultPlan plan;
  plan.default_node.icmp_rate_per_sec = 0.0005;
  plan.default_node.icmp_burst = 2.0;
  GridResult r = run_grid_cell(plan);
  EXPECT_TRUE(r.any_rate_limit_flag);
  // Rate limiting alone starves ICMP, never the blocking verdict.
  EXPECT_EQ(r.blocked, kTrials);
}

TEST(Chaos, RouteChurnFlaggedAndSurvivedOnEcmpTopology) {
  // Route flapping over an ECMP diamond: hop 2 alternates between twins,
  // which the confidence layer must flag as path churn — while the
  // blocking hop (on both branches) stays correctly localized.
  sim::FaultPlan plan;
  plan.route_flap_period = 10 * kMinute;
  GridResult r = run_grid_cell(plan, /*ecmp=*/true);
  EXPECT_TRUE(r.any_churn_flag);
  EXPECT_GE(r.localized, (kTrials * 9) / 10);
}

TEST(Chaos, HeavyGridCellDegradesGracefully) {
  // 20 % loss + duplication + reordering + payload mangling + route-flap
  // scheduling: verdicts may wobble but every run must complete, carry a
  // sub-1.0 confidence, and never mislocate to an off-path hop.
  sim::FaultPlan plan;
  plan.default_link.loss = 0.2;
  plan.default_link.duplicate = 0.1;
  plan.default_link.reorder = 0.1;
  plan.default_link.truncate = 0.02;
  plan.default_link.corrupt = 0.02;
  plan.route_flap_period = 10 * kMinute;
  GridResult r = run_grid_cell(plan);
  EXPECT_GT(r.blocked, 0);
  EXPECT_LT(r.confidence_sum, static_cast<double>(kTrials));
  EXPECT_GT(r.confidence_sum, 0.0);
}

TEST(Chaos, DeadChannelAbortBoundsProbesWithoutChangingVerdicts) {
  // Drop-censor behind 100 % ICMP blackhole: every test probe times out
  // and no router ever answers. The early-abort heuristic must declare
  // the channel dead and stop burning the retry budget — with verdicts
  // byte-equal to the unbounded run.
  scenario::SilentOptions so;
  so.drop_censor = true;
  so.blackhole_probability = 1.0;
  so.spines = 1;
  so.vantages = 1;

  struct Outcome {
    CenTraceReport report;
    std::uint64_t probes = 0;
    std::uint64_t retries = 0;
    std::uint64_t dead = 0;
  };
  auto run = [&](int abort_after) {
    scenario::SilentScenario s = scenario::make_silent(so, 7);
    obs::Observer observer;
    s.network->set_observer(&observer);
    CenTraceOptions opts;
    opts.repetitions = 3;
    opts.silent_channel_abort = abort_after;
    CenTrace tracer(*s.network, s.vantages[0], opts);
    Outcome out;
    out.report = tracer.measure(s.endpoint, s.test_domain, s.control_domain);
    out.probes = observer.metrics().counter_value("centrace.probes");
    out.retries = observer.metrics().counter_value("centrace.retries");
    out.dead = observer.metrics().counter_value("centrace.dead_channel_sweeps");
    return out;
  };

  const Outcome bounded = run(8);
  const Outcome unbounded = run(0);

  EXPECT_GT(bounded.dead, 0u);
  EXPECT_EQ(unbounded.dead, 0u);
  // Same verdict, strictly less probing.
  EXPECT_EQ(bounded.report.blocked, unbounded.report.blocked);
  EXPECT_EQ(bounded.report.blocking_type, unbounded.report.blocking_type);
  EXPECT_EQ(bounded.report.location, unbounded.report.location);
  EXPECT_EQ(bounded.report.blocking_hop_ttl, unbounded.report.blocking_hop_ttl);
  EXPECT_EQ(bounded.report.blocking_hop_ip, unbounded.report.blocking_hop_ip);
  EXPECT_LT(bounded.retries, unbounded.retries);
  EXPECT_LE(bounded.probes, unbounded.probes);
  // Bounded probe count: dead-channel sweeps stop retrying, so the total
  // attempt count stays within the no-retry envelope plus the pre-abort
  // warm-up, far under the unbounded run's budget.
  EXPECT_LT(bounded.probes + bounded.retries,
            (unbounded.probes + unbounded.retries) * 3 / 4);
}

TEST(Chaos, TokenBucketBurstBelowOneTokenIsClampedNotBlackholed) {
  // Edge case: a burst cap under one token would make the limiter a
  // blackhole in disguise; the sanitizer clamps it to one token exactly
  // so "rate limited" stays distinguishable from "silent". A sub-token
  // burst must therefore behave byte-identically to burst = 1.0, and the
  // starvation must still be flagged as rate limiting.
  sim::FaultPlan half;
  half.default_node.icmp_rate_per_sec = 0.0005;
  half.default_node.icmp_burst = 0.5;
  sim::FaultPlan one = half;
  one.default_node.icmp_burst = 1.0;
  GridResult rh = run_grid_cell(half);
  GridResult ro = run_grid_cell(one);
  EXPECT_EQ(rh.blocked, ro.blocked);
  EXPECT_EQ(rh.localized, ro.localized);
  EXPECT_EQ(rh.confidence_sum, ro.confidence_sum);
  EXPECT_EQ(rh.blocked, kTrials);  // the verdict itself never starves
  EXPECT_TRUE(rh.any_rate_limit_flag);
}

TEST(Chaos, TokenBucketHighRateIsInert) {
  // Edge case: a refill rate fast enough to replace every token between
  // probes must behave exactly like an unlimited channel.
  sim::FaultPlan plan;
  plan.default_node.icmp_rate_per_sec = 1000.0;
  plan.default_node.icmp_burst = 4.0;
  GridResult r = run_grid_cell(plan);
  EXPECT_EQ(r.blocked, kTrials);
  EXPECT_EQ(r.localized, kTrials);
  EXPECT_FALSE(r.any_rate_limit_flag);
  EXPECT_EQ(r.confidence_sum, static_cast<double>(kTrials));
}

TEST(Chaos, CountryPipelineSurvivesFaultGrid) {
  // The full pipeline (CenTrace + banner grabs) over a scenario with the
  // acceptance-cell faults: it must complete, keep finding blocking, and
  // surface degraded confidence rather than failing.
  scenario::CountryScenario clean = scenario::make_country(
      scenario::Country::kAZ, scenario::Scale::kSmall);
  scenario::PipelineOptions opts;
  opts.centrace_repetitions = 3;
  opts.run_fuzz = false;
  opts.run_banner = true;
  opts.max_domains = 1;
  scenario::PipelineResult baseline = scenario::run_country_pipeline(clean, opts);

  scenario::CountryScenario faulty = scenario::make_country(
      scenario::Country::kAZ, scenario::Scale::kSmall);
  opts.faults = acceptance_plan();
  scenario::PipelineResult chaotic = scenario::run_country_pipeline(faulty, opts);

  EXPECT_GT(baseline.blocked_remote(), 0u);
  EXPECT_GT(chaotic.blocked_remote(), 0u);
  // Clean scenarios may still see genuine ECMP path variance (that is why
  // the paper repeats sweeps), so the baseline is high but not pinned.
  EXPECT_GT(baseline.mean_remote_confidence(), 0.5);
  EXPECT_LE(chaotic.mean_remote_confidence(), 1.0);
  EXPECT_GT(chaotic.mean_remote_confidence(), 0.0);
  for (const CenTraceReport& r : chaotic.remote_traces) {
    EXPECT_GE(r.confidence.overall, 0.0);
    EXPECT_LE(r.confidence.overall, 1.0);
  }
}

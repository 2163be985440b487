// Observability subsystem: registry semantics (bucket edges, merge
// rules), span nesting and ordering, journal round-trips, the
// disabled-sink no-op contract, and the determinism acceptance — metric
// snapshots, span timelines and journals byte-identical across worker
// counts, on clean networks and under a non-inert fault plan. Runs under
// the TSan preset alongside the parallel suite (`ctest -L obs`).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/thread_pool.hpp"
#include "obs/observer.hpp"
#include "report/json_report.hpp"
#include "scenario/pipeline.hpp"

using namespace cen;
using namespace cen::obs;
using namespace cen::scenario;

// ------------------------------------------------------------- Registry

TEST(Registry, CounterGaugeBasics) {
  Registry r;
  EXPECT_TRUE(r.empty());
  r.counter("a").inc();
  r.counter("a").inc(4);
  EXPECT_EQ(r.counter_value("a"), 5u);
  EXPECT_EQ(r.counter_value("missing"), 0u);
  r.gauge("g").set(7);
  r.gauge("g").set_max(3);  // lower: ignored
  EXPECT_EQ(r.gauge("g").value(), 7);
  r.gauge("g").set_max(11);
  EXPECT_EQ(r.gauge("g").value(), 11);
  EXPECT_FALSE(r.empty());
  r.clear();
  EXPECT_TRUE(r.empty());
}

TEST(Registry, StableReferences) {
  // Hot paths bind counter pointers once; creating more metrics must not
  // invalidate them (node-based storage).
  Registry r;
  Counter& first = r.counter("first");
  for (int i = 0; i < 100; ++i) r.counter("filler." + std::to_string(i));
  first.inc();
  EXPECT_EQ(r.counter_value("first"), 1u);
  EXPECT_EQ(&first, &r.counter("first"));
}

TEST(Registry, HistogramBucketEdges) {
  Registry r;
  Histogram& h = r.histogram("h", {10, 20, 30});
  // `le` semantics: a sample exactly on a bound lands in that bucket.
  h.observe(10);
  h.observe(11);
  h.observe(20);
  h.observe(30);
  h.observe(31);  // overflow (+Inf bucket)
  h.observe(0);
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);  // 0, 10
  EXPECT_EQ(h.counts()[1], 2u);  // 11, 20
  EXPECT_EQ(h.counts()[2], 1u);  // 30
  EXPECT_EQ(h.counts()[3], 1u);  // 31
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 10u + 11 + 20 + 30 + 31);
}

TEST(Registry, KindAndDomainMismatchThrow) {
  Registry r;
  r.counter("x");
  EXPECT_THROW(r.gauge("x"), std::logic_error);
  EXPECT_THROW(r.histogram("x", {1}), std::logic_error);
  EXPECT_THROW(r.counter("x", Domain::kWall), std::logic_error);
  r.histogram("hh", {1, 2});
  EXPECT_THROW(r.histogram("hh", {1, 3}), std::logic_error);  // bound mismatch
}

TEST(Registry, MergeAddsCountersMaxesGaugesSumsHistograms) {
  Registry a, b;
  a.counter("c").inc(2);
  b.counter("c").inc(3);
  b.counter("only_b").inc(1);
  a.gauge("g").set(5);
  b.gauge("g").set(9);
  a.histogram("h", {10}).observe(4);
  b.histogram("h", {10}).observe(40);
  a.merge_from(b);
  EXPECT_EQ(a.counter_value("c"), 5u);
  EXPECT_EQ(a.counter_value("only_b"), 1u);
  EXPECT_EQ(a.gauge("g").value(), 9);
  const Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(h->sum(), 44u);
  EXPECT_EQ(h->counts()[0], 1u);
  EXPECT_EQ(h->counts()[1], 1u);
}

// Named regression: merge_from used set_max(donor.value()) even for donor
// gauges that were created but never set, so a default 0 clobbered a
// legitimately negative receiver value. Only touched donors may now
// participate in the max.
TEST(Registry, Regression_MergeUntouchedGaugeKeepsNegativeValue) {
  Registry a, b;
  a.gauge("depth").set(-5);
  b.gauge("depth");  // exists in the donor but was never set
  a.merge_from(b);
  EXPECT_EQ(a.gauge("depth").value(), -5);

  // A genuinely-set donor still wins the max, even at a negative value.
  Registry c;
  c.gauge("depth").set(-2);
  a.merge_from(c);
  EXPECT_EQ(a.gauge("depth").value(), -2);
}

TEST(Registry, HistogramBoundsMismatchThrows) {
  Registry r;
  r.histogram("h", {10, 20});
  EXPECT_THROW(r.histogram("h", {10, 30}), std::logic_error);
  EXPECT_THROW(r.histogram("bad", {20, 10}), std::logic_error);

  // The merge path creates missing histograms with the donor's bounds and
  // must hit the same check when the receiver's bounds differ.
  Registry donor;
  donor.histogram("h", {10, 30}).observe(5);
  EXPECT_THROW(r.merge_from(donor), std::logic_error);
  Registry ok;
  ok.histogram("h", {10, 20}).observe(5);
  r.merge_from(ok);
  EXPECT_EQ(r.find_histogram("h")->count(), 1u);
}

TEST(Registry, QuantilesRegisterMergeAndExport) {
  Registry r;
  CkmsQuantiles& q = r.quantiles("ttl");
  for (std::uint64_t v = 1; v <= 100; ++v) q.observe(v);
  // Cross-kind and target mismatches are configuration bugs.
  EXPECT_THROW(r.counter("ttl"), std::logic_error);
  EXPECT_THROW(r.quantiles("ttl", {{75, 0.01}}), std::logic_error);
  EXPECT_EQ(r.find_quantiles("missing"), nullptr);

  Registry shard;
  for (std::uint64_t v = 101; v <= 200; ++v) shard.quantiles("ttl").observe(v);
  r.merge_from(shard);
  ASSERT_NE(r.find_quantiles("ttl"), nullptr);
  EXPECT_EQ(r.find_quantiles("ttl")->count(), 200u);

  const std::string prom = r.to_prometheus();
  EXPECT_NE(prom.find("# TYPE cen_ttl summary"), std::string::npos);
  EXPECT_NE(prom.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(prom.find("cen_ttl_count 200"), std::string::npos);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"quantiles\""), std::string::npos);
  EXPECT_NE(json.find("\"p90\""), std::string::npos);
  EXPECT_TRUE(json_valid(json));
}

TEST(Registry, WallDomainExcludedFromDefaultExports) {
  Registry r;
  r.counter("sim_metric").inc();
  r.gauge("wall_metric", Domain::kWall).set(123);
  std::string prom = r.to_prometheus();
  std::string json = r.to_json();
  EXPECT_NE(prom.find("cen_sim_metric"), std::string::npos);
  EXPECT_EQ(prom.find("wall_metric"), std::string::npos);
  EXPECT_EQ(json.find("wall_metric"), std::string::npos);
  // Explicitly requested, the wall series appear.
  EXPECT_NE(r.to_prometheus(true).find("cen_wall_metric"), std::string::npos);
  EXPECT_NE(r.to_json(true).find("wall_metric"), std::string::npos);
  EXPECT_TRUE(json_valid(json));
  EXPECT_TRUE(json_valid(r.to_json(true)));
}

TEST(Registry, PrometheusHistogramIsCumulativeWithInf) {
  Registry r;
  Histogram& h = r.histogram("lat", {10, 20});
  h.observe(5);
  h.observe(15);
  h.observe(99);
  std::string prom = r.to_prometheus();
  EXPECT_NE(prom.find("cen_lat_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("cen_lat_bucket{le=\"20\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("cen_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("cen_lat_count 3"), std::string::npos);
}

// --------------------------------------------------------------- Tracer

TEST(Tracer, NestingAndOrdering) {
  Tracer t;
  t.begin("outer", "test", 0);
  t.begin("inner", "test", 10);
  EXPECT_EQ(t.open_depth(), 2u);
  t.end(30);  // inner closes first
  t.end(100);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].name, "inner");
  EXPECT_EQ(t.spans()[0].begin_ms, 10u);
  EXPECT_EQ(t.spans()[0].duration_ms, 20u);
  EXPECT_EQ(t.spans()[0].depth, 1u);
  EXPECT_EQ(t.spans()[1].name, "outer");
  EXPECT_EQ(t.spans()[1].duration_ms, 100u);
  EXPECT_EQ(t.spans()[1].depth, 0u);
  EXPECT_EQ(t.open_depth(), 0u);
}

TEST(Tracer, ScopedSpanAgainstSimClock) {
  SimClock clock;
  Tracer t;
  {
    ScopedSpan outer(&t, &clock, "measure", "centrace");
    clock.advance(50);
  }
  ASSERT_EQ(t.spans().size(), 1u);
  EXPECT_EQ(t.spans()[0].duration_ms, 50u);
  // Null tracer: inert, no crash, nothing recorded.
  { ScopedSpan inert(nullptr, &clock, "x", "y"); }
  EXPECT_EQ(t.spans().size(), 1u);
}

TEST(Tracer, AppendFromRebasesAndClosesOpenSpans) {
  Tracer task;
  task.begin("a", "t", 0);
  task.end(10);
  task.begin("left_open", "t", 20);
  Tracer merged;
  merged.append_from(task, /*tid=*/3, /*ts_offset_ms=*/1000, /*other_now=*/25);
  ASSERT_EQ(merged.spans().size(), 2u);
  EXPECT_EQ(merged.spans()[0].begin_ms, 1000u);
  EXPECT_EQ(merged.spans()[0].tid, 3u);
  EXPECT_EQ(merged.spans()[1].name, "left_open");
  EXPECT_EQ(merged.spans()[1].begin_ms, 1020u);
  EXPECT_EQ(merged.spans()[1].duration_ms, 5u);
}

TEST(Tracer, ChromeJsonIsValidAndMicroseconds) {
  Tracer t;
  t.complete("span", "cat", 2, 5);
  std::string json = t.to_chrome_json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2000"), std::string::npos);   // 2 ms -> 2000 us
  EXPECT_NE(json.find("\"dur\":3000"), std::string::npos);  // 3 ms -> 3000 us
}

// -------------------------------------------------------------- Journal

TEST(Journal, RoundTripAndJson) {
  Journal j;
  j.record(5, "probe", "d.example ttl=3");
  j.record(9, "retry", "recovered");
  ASSERT_EQ(j.events().size(), 2u);
  EXPECT_EQ(j.events()[0].kind, "probe");
  std::string json = j.to_json();
  EXPECT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"t_ms\":5"), std::string::npos);
  EXPECT_NE(json.find("d.example ttl=3"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
}

TEST(Journal, CapBoundsDeterministically) {
  Journal j(2);
  j.record(1, "k", "a");
  j.record(2, "k", "b");
  j.record(3, "k", "c");  // dropped
  EXPECT_EQ(j.events().size(), 2u);
  EXPECT_EQ(j.dropped(), 1u);
  Journal merged;
  merged.append_from(j, /*tid=*/2, /*ts_offset_ms=*/100);
  EXPECT_EQ(merged.events().size(), 2u);
  EXPECT_EQ(merged.events()[0].t_ms, 101u);
  EXPECT_EQ(merged.events()[0].tid, 2u);
  EXPECT_EQ(merged.dropped(), 1u);  // donor's drop count carries over
}

// ---------------------------------------------- Observer + instrumentation

namespace {

PipelineOptions obs_opts(int threads, Observer* observer) {
  PipelineOptions o;
  o.centrace_repetitions = 3;
  o.run_banner = true;
  o.run_fuzz = true;
  o.fuzz_max_endpoints = 1;
  o.threads = threads;
  o.observer = observer;
  return o;
}

void add_faults(PipelineOptions& o) {
  o.faults.transient_loss = 0.05;
  o.faults.default_link.duplicate = 0.02;
  o.faults.default_link.reorder = 0.02;
  o.faults.default_node.icmp_rate_per_sec = 2.0;
  o.centrace_retry_backoff = kSecond;
}

struct PipelineSnapshot {
  std::string result_json;
  std::string metrics_json;
  std::string trace_json;
  std::string journal_json;
};

PipelineSnapshot observed_pipeline(Country country, int threads, bool faulty) {
  Observer observer;
  PipelineOptions o = obs_opts(threads, &observer);
  if (faulty) add_faults(o);
  CountryScenario s = make_country(country, Scale::kSmall);
  PipelineResult r = run_country_pipeline(s, o);
  return {report::to_json(r), report::to_json(observer), observer.tracer().to_chrome_json(),
          observer.journal().to_json()};
}

}  // namespace

TEST(Observer, EngineCountersMoveWhenAttached) {
  CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
  Observer observer;
  s.network->set_observer(&observer);
  trace::CenTrace ct(*s.network, s.remote_client, trace::CenTraceOptions{});
  trace::CenTraceReport r = ct.measure(s.remote_endpoints.front(),
                                       s.http_test_domains.front(), s.control_domain);
  (void)r;
  const Registry& m = observer.metrics();
  EXPECT_GT(m.counter_value("engine.forward_walks"), 0u);
  EXPECT_GT(m.counter_value("engine.hops_traversed"), 0u);
  EXPECT_GT(m.counter_value("centrace.probes"), 0u);
  EXPECT_EQ(m.counter_value("centrace.measurements"), 1u);
  const Histogram* conf = m.find_histogram("centrace.confidence_milli");
  ASSERT_NE(conf, nullptr);
  EXPECT_EQ(conf->count(), 1u);
  EXPECT_FALSE(observer.tracer().empty());
  EXPECT_FALSE(observer.journal().empty());
  EXPECT_EQ(observer.tracer().open_depth(), 0u);

  // Detaching restores the no-op path: nothing moves afterwards.
  s.network->set_observer(nullptr);
  const std::uint64_t walks = m.counter_value("engine.forward_walks");
  ct.measure(s.remote_endpoints.front(), s.http_test_domains.front(), s.control_domain);
  EXPECT_EQ(m.counter_value("engine.forward_walks"), walks);
}

TEST(Observer, ObservationDoesNotPerturbMeasurements) {
  // The observed run must produce byte-identical reports to the
  // unobserved run — including under faults, where the counting sits
  // next to the fault RNG draws.
  for (bool faulty : {false, true}) {
    Observer observer;
    PipelineOptions with_obs = obs_opts(2, &observer);
    PipelineOptions without = obs_opts(2, nullptr);
    if (faulty) {
      add_faults(with_obs);
      add_faults(without);
    }
    CountryScenario s1 = make_country(Country::kKZ, Scale::kSmall);
    CountryScenario s2 = make_country(Country::kKZ, Scale::kSmall);
    EXPECT_EQ(report::to_json(run_country_pipeline(s1, with_obs)),
              report::to_json(run_country_pipeline(s2, without)))
        << (faulty ? "faulty" : "clean") << " run perturbed by observation";
    EXPECT_FALSE(observer.metrics().empty());
  }
}

TEST(Observer, PipelineSnapshotsByteIdenticalAcrossThreadCounts) {
  const PipelineSnapshot ref = observed_pipeline(Country::kKZ, 1, false);
  EXPECT_TRUE(json_valid(ref.metrics_json));
  EXPECT_TRUE(json_valid(ref.trace_json));
  for (int threads : {0, 2, 4}) {
    PipelineSnapshot got = observed_pipeline(Country::kKZ, threads, false);
    EXPECT_EQ(ref.result_json, got.result_json) << threads << " threads";
    EXPECT_EQ(ref.metrics_json, got.metrics_json) << threads << " threads";
    EXPECT_EQ(ref.trace_json, got.trace_json) << threads << " threads";
    EXPECT_EQ(ref.journal_json, got.journal_json) << threads << " threads";
  }
}

TEST(Observer, PipelineSnapshotsByteIdenticalUnderFaults) {
  const PipelineSnapshot ref = observed_pipeline(Country::kAZ, 1, true);
  // The fault plan actually fires (the snapshot is not vacuous).
  EXPECT_NE(ref.metrics_json.find("faults."), std::string::npos);
  for (int threads : {0, 2, 5}) {
    PipelineSnapshot got = observed_pipeline(Country::kAZ, threads, true);
    EXPECT_EQ(ref.result_json, got.result_json) << threads << " threads";
    EXPECT_EQ(ref.metrics_json, got.metrics_json) << threads << " threads";
    EXPECT_EQ(ref.trace_json, got.trace_json) << threads << " threads";
    EXPECT_EQ(ref.journal_json, got.journal_json) << threads << " threads";
  }
}

// --------------------------------------------------- CenTrace fan-out CLI path

namespace {

struct FanoutSnapshot {
  std::string reports_json;
  std::string metrics_json;
  std::string trace_json;
  std::string journal_json;
  std::string perf_report;  // wall domain included, as --perf-report writes it
};

FanoutSnapshot fanout(int threads, bool faulty) {
  CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
  if (faulty) {
    sim::FaultPlan plan;
    plan.transient_loss = 0.05;
    plan.default_link.duplicate = 0.02;
    plan.default_node.icmp_rate_per_sec = 2.0;
    s.network->set_fault_plan(plan);
  }
  trace::CenTraceOptions opts;
  opts.repetitions = 3;
  if (faulty) opts.retry_backoff = kSecond;
  std::vector<net::Ipv4Address> endpoints(s.remote_endpoints.begin(),
                                          s.remote_endpoints.begin() + 2);
  std::vector<std::string> domains(s.http_test_domains.begin(),
                                   s.http_test_domains.begin() + 2);
  Observer observer;
  std::vector<trace::CenTraceReport> reports = run_trace_fanout(
      *s.network, s.remote_client, endpoints, domains, s.control_domain, opts,
      threads, &observer);
  FanoutSnapshot snap;
  for (const trace::CenTraceReport& r : reports) {
    snap.reports_json += report::to_json(r, /*include_sweeps=*/true);
    snap.reports_json += '\n';
  }
  snap.metrics_json = report::to_json(observer);
  snap.trace_json = observer.tracer().to_chrome_json();
  snap.journal_json = observer.journal().to_json();
  snap.perf_report = observer.metrics().to_json(/*include_wall=*/true);
  return snap;
}

}  // namespace

TEST(TraceFanout, ByteIdenticalAcrossThreadsIncludingInline) {
  // The acceptance contract behind `cen trace --threads`: reports,
  // metric snapshots, span timelines (sim-clock timestamps) and journals
  // identical for threads in {0, 1, 4} — 0 is the poolless inline path.
  for (bool faulty : {false, true}) {
    const FanoutSnapshot ref = fanout(0, faulty);
    EXPECT_TRUE(json_valid(ref.metrics_json));
    EXPECT_TRUE(json_valid(ref.trace_json));
    EXPECT_NE(ref.trace_json.find("stage:centrace"), std::string::npos);
    // The inline run dispatches through the executor too, so the perf
    // report carries its executor and path-cache counters.
    for (const char* name : {"perf.tasks", "perf.reset_ns", "pathcache.hits", "pathcache.misses",
                             "pool.wall_ns"}) {
      EXPECT_NE(ref.perf_report.find(name), std::string::npos) << name;
    }
    for (int threads : {1, 4}) {
      FanoutSnapshot got = fanout(threads, faulty);
      EXPECT_EQ(ref.reports_json, got.reports_json)
          << threads << " threads, faulty=" << faulty;
      EXPECT_EQ(ref.metrics_json, got.metrics_json)
          << threads << " threads, faulty=" << faulty;
      EXPECT_EQ(ref.trace_json, got.trace_json)
          << threads << " threads, faulty=" << faulty;
      EXPECT_EQ(ref.journal_json, got.journal_json)
          << threads << " threads, faulty=" << faulty;
    }
  }
}

// ------------------------------------------------------------- PoolStats

TEST(PoolStats, CountsJobsTasksAndPeak) {
  ThreadPool pool(3);
  PoolStats stats;
  pool.set_stats(&stats);
  pool.parallel_for(10, [](int, std::size_t) {});
  pool.parallel_for(4, [](int, std::size_t) {});
  pool.set_stats(nullptr);
  EXPECT_EQ(stats.jobs.load(), 2u);
  EXPECT_EQ(stats.tasks.load(), 14u);
  EXPECT_EQ(stats.peak_pending.load(), 10u);
  EXPECT_GT(stats.wall_ns.load(), 0u);
  // Detached: nothing moves.
  pool.parallel_for(5, [](int, std::size_t) {});
  EXPECT_EQ(stats.jobs.load(), 2u);
}

// --------------------------------------------------------------- summary

TEST(Observer, SummaryMentionsKeyCounters) {
  Observer observer;
  observer.engine().forward_walks->inc(3);
  observer.tools().trace_probes->inc(7);
  std::string s = observer.summary();
  EXPECT_NE(s.find("forward walks"), std::string::npos);
  EXPECT_NE(s.find("3"), std::string::npos);
  EXPECT_NE(s.find("7"), std::string::npos);
}

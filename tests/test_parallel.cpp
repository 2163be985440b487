// Determinism contract of the parallel measurement pipeline: the merged
// PipelineResult must be byte-identical (as JSON) for every worker count,
// inline (threads = 0) included, with threads = 1 as the reference — on
// clean networks AND under a non-inert fault plan. Also unit-covers the
// ThreadPool, the executor's inline mode and the integer stride sampler.
// This suite is the one the TSan preset runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <vector>

#include "cenfuzz/cenfuzz.hpp"
#include "core/fingerprint.hpp"
#include "core/json.hpp"
#include "core/thread_pool.hpp"
#include "obs/observer.hpp"
#include "report/json_report.hpp"
#include "scenario/executor.hpp"
#include "scenario/ambig.hpp"
#include "scenario/pipeline.hpp"
#include "scenario/silent.hpp"
#include "scenario/variance.hpp"
#include "worldgen/spec.hpp"

using namespace cen;
using namespace cen::scenario;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](int worker, std::size_t i) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 4);
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroCountReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](int, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(10, [&](int, std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](int, std::size_t i) {
                          if (i == 3) throw std::runtime_error("task failed");
                        }),
      std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.parallel_for(5, [&](int, std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

TEST(ThreadPool, HardwareThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, ChunkedDispatchCoversEveryIndexOnce) {
  ThreadPool pool(4);
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{16},
                            std::size_t{1000}, std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for_chunked(hits.size(), chunk,
                              [&](int worker, std::size_t begin, std::size_t end) {
                                EXPECT_GE(worker, 0);
                                EXPECT_LT(worker, 4);
                                EXPECT_LT(begin, end);
                                EXPECT_LE(end - begin, chunk == 0 ? 1 : chunk);
                                for (std::size_t i = begin; i < end; ++i) {
                                  hits[i].fetch_add(1);
                                }
                              });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  // chunk = 0 is clamped to 1 rather than spinning forever.
  std::atomic<int> count{0};
  pool.parallel_for_chunked(10, 0, [&](int, std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ChunkedPropagatesExceptionsAndDrains) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_chunked(
                   64, 8,
                   [&](int, std::size_t begin, std::size_t) {
                     if (begin == 16) throw std::runtime_error("chunk failed");
                   }),
               std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for_chunked(5, 2, [&](int, std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 5);
}

// ------------------------------------------------------------ stride sampler

TEST(StrideSample, CapAtLeastSizeReturnsAll) {
  auto all = stride_sample_indices(5, 5);
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(all[i], i);
  EXPECT_EQ(stride_sample_indices(5, 9).size(), 5u);
  EXPECT_EQ(stride_sample_indices(5, -1).size(), 5u);
  EXPECT_TRUE(stride_sample_indices(0, -1).empty());
  EXPECT_TRUE(stride_sample_indices(0, 3).empty());
}

TEST(StrideSample, NoDuplicatesStrictlyIncreasingInRange) {
  // Exhaustive over small (n, cap): the float-stride version this replaced
  // could truncate two slots onto one element; the integer version is
  // provably strictly increasing.
  for (std::size_t n = 1; n <= 150; ++n) {
    for (int cap = 1; cap <= static_cast<int>(n); ++cap) {
      auto idx = stride_sample_indices(n, cap);
      ASSERT_EQ(idx.size(), static_cast<std::size_t>(cap));
      EXPECT_EQ(idx.front(), 0u);
      for (std::size_t i = 0; i < idx.size(); ++i) {
        ASSERT_LT(idx[i], n);
        if (i > 0) {
          ASSERT_GT(idx[i], idx[i - 1]);
        }
      }
    }
  }
}

TEST(StrideSample, SpreadsAcrossWholeRange) {
  // cap of 4 out of 100 must not bunch at the front (AS representation).
  auto idx = stride_sample_indices(100, 4);
  ASSERT_EQ(idx.size(), 4u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 25u);
  EXPECT_EQ(idx[2], 50u);
  EXPECT_EQ(idx[3], 75u);
}

// ----------------------------------------------------------- substream seeds

TEST(Executor, TaskSeedsAreReproducibleAndDistinct) {
  std::vector<std::uint64_t> keys;
  for (std::uint32_t ep = 0; ep < 64; ++ep) {
    keys.push_back(task_key(ep, "blocked.example", ep % 4));
  }
  auto a = derive_task_seeds(7, 0x1234, keys);
  auto b = derive_task_seeds(7, 0x1234, keys);
  EXPECT_EQ(a, b);
  std::set<std::uint64_t> distinct(a.begin(), a.end());
  EXPECT_EQ(distinct.size(), a.size());
  // Different stage salt = disjoint substream universe.
  auto c = derive_task_seeds(7, 0x9999, keys);
  EXPECT_NE(a, c);
}

TEST(Executor, KeyDependsOnEveryComponent) {
  std::uint64_t base = task_key(42, "a.example", 1);
  EXPECT_NE(base, task_key(43, "a.example", 1));
  EXPECT_NE(base, task_key(42, "b.example", 1));
  EXPECT_NE(base, task_key(42, "a.example", 2));
}

TEST(Executor, HashedKeyFormIsBitIdentical) {
  // The fan-outs precompute domain_hash once per domain; the decomposed
  // form must reproduce task_key exactly or every substream seed shifts.
  for (const char* domain : {"", "a.example", "blocked.example.org"}) {
    const std::uint64_t dh = domain_hash(domain);
    for (std::uint32_t ep : {0u, 42u, 0xffffffffu}) {
      for (std::uint64_t tag : {0ull, 1ull, 0x20ull}) {
        EXPECT_EQ(task_key(ep, domain, tag), task_key_hashed(ep, dh, tag));
      }
    }
  }
}

TEST(Executor, DispatchChunkKeepsEveryWorkerBusy) {
  // Whenever a dispatch has at least one task per worker, the chunk must
  // leave at least one chunk for every worker to claim — otherwise one
  // worker runs the whole dispatch while the rest wait — and it never
  // exceeds the cap.
  for (int workers = 1; workers <= 16; ++workers) {
    for (std::size_t n = 0; n <= 2000; ++n) {
      const std::size_t chunk = dispatch_chunk(n, workers);
      ASSERT_GE(chunk, 1u);
      ASSERT_LE(chunk, kMaxDispatchChunk);
      if (n >= static_cast<std::size_t>(workers)) {
        ASSERT_GE((n + chunk - 1) / chunk, static_cast<std::size_t>(workers))
            << n << " tasks over " << workers << " workers, chunk " << chunk;
      }
    }
  }
  // Large dispatches amortise the cursor bump over the full cap.
  EXPECT_EQ(dispatch_chunk(100000, 4), kMaxDispatchChunk);
  // The campaign's old 8-task checkpoint dispatch now spreads over 4 workers.
  EXPECT_EQ(dispatch_chunk(8, 4), 1u);
}

TEST(Executor, InlineModeRunsOnThePrototype) {
  CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
  sim::Network& prototype = *s.network;
  obs::Observer caller;
  prototype.set_observer(&caller);
  ParallelExecutor exec(prototype, 0);
  EXPECT_EQ(exec.threads(), 0);

  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  std::vector<std::size_t> order;
  exec.run(seeds, [&](sim::Network& net, std::size_t i) {
    EXPECT_EQ(&net, &prototype);  // no clone
    EXPECT_EQ(net.observer(), nullptr);  // the caller's sink is set aside
    EXPECT_EQ(net.now(), SimTime{0});  // reset to the task's epoch
    net.clock().advance(kSecond);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(prototype.observer(), &caller);
  EXPECT_EQ(exec.perf().clone_ns.load(), 0u);
  EXPECT_EQ(exec.perf().tasks.load(), 3u);

  // A throwing task propagates, and the caller's observer still returns.
  EXPECT_THROW(exec.run(seeds,
                        [](sim::Network&, std::size_t i) {
                          if (i == 1) throw std::runtime_error("task failed");
                        }),
               std::runtime_error);
  EXPECT_EQ(prototype.observer(), &caller);
  prototype.set_observer(nullptr);
}

TEST(Executor, InlineModeCountsDispatchesLikeThePool) {
  // pool.jobs / pool.tasks / pool.peak_pending are sim-domain metrics, so
  // the inline mode must account a dispatch exactly as the pool does,
  // including an empty dispatch, which neither counts.
  auto counts = [](int threads) {
    CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
    ParallelExecutor exec(*s.network, threads);
    exec.set_perf_tracking(true);
    for (std::size_t n : {std::size_t{5}, std::size_t{0}, std::size_t{9}}) {
      exec.run(std::vector<std::uint64_t>(n, 7), [](sim::Network&, std::size_t) {});
    }
    const PoolStats& p = exec.perf().pool;
    return std::vector<std::uint64_t>{p.jobs.load(), p.tasks.load(), p.peak_pending.load()};
  };
  EXPECT_EQ(counts(0), (std::vector<std::uint64_t>{2, 14, 9}));
  EXPECT_EQ(counts(0), counts(3));
}

// ------------------------------------------------- pipeline determinism

namespace {

PipelineOptions parallel_opts(int threads) {
  PipelineOptions o;
  o.centrace_repetitions = 3;
  o.run_banner = true;
  o.run_fuzz = true;
  o.fuzz_max_endpoints = 1;
  o.threads = threads;
  return o;
}

PipelineOptions faulty_opts(int threads) {
  PipelineOptions o = parallel_opts(threads);
  o.faults.transient_loss = 0.05;
  o.faults.default_link.duplicate = 0.02;
  o.faults.default_link.reorder = 0.02;
  o.faults.default_node.icmp_rate_per_sec = 2.0;
  o.centrace_retry_backoff = kSecond;
  return o;
}

std::string pipeline_json(Country country, const PipelineOptions& options) {
  CountryScenario s = make_country(country, Scale::kSmall);
  PipelineResult r = run_country_pipeline(s, options);
  return report::to_json(r);
}

}  // namespace

TEST(ParallelPipeline, ByteIdenticalAcrossThreadCounts) {
  // The worker count also sets the dispatch chunk (dispatch_chunk), so this
  // sweep covers scheduling granularity as well.
  const std::string reference = pipeline_json(Country::kKZ, parallel_opts(1));
  EXPECT_FALSE(reference.empty());
  for (int threads : {2, 3, 4, 8}) {
    EXPECT_EQ(reference, pipeline_json(Country::kKZ, parallel_opts(threads)))
        << "thread count " << threads << " changed the result";
  }
  // Auto thread count (-1) rides the same hermetic path.
  EXPECT_EQ(reference, pipeline_json(Country::kKZ, parallel_opts(-1)));
}

TEST(ParallelPipeline, ByteIdenticalUnderNonInertFaultPlan) {
  const std::string reference = pipeline_json(Country::kAZ, faulty_opts(1));
  for (int threads : {2, 5}) {
    EXPECT_EQ(reference, pipeline_json(Country::kAZ, faulty_opts(threads)))
        << "thread count " << threads << " changed the faulty-run result";
  }
}

TEST(ParallelPipeline, ThreadsZeroMatchesThePool) {
  // threads = 0 runs the same hermetic tasks inline on the scenario
  // network: no pool, no replicas, the same result.
  for (Country country : {Country::kBY, Country::kKZ}) {
    EXPECT_EQ(pipeline_json(country, parallel_opts(1)), pipeline_json(country, parallel_opts(0)))
        << country_code(country);
  }
  EXPECT_EQ(pipeline_json(Country::kAZ, faulty_opts(1)),
            pipeline_json(Country::kAZ, faulty_opts(0)));
}

TEST(ParallelPipeline, HermeticResultIsValidJson) {
  EXPECT_TRUE(json_valid(pipeline_json(Country::kKZ, parallel_opts(2))));
}

TEST(TraceFanout, ByteIdenticalAcrossThreads) {
  // The fan-out contract includes threads = 0 (inline-hermetic on the
  // prototype network itself — no pool, no replicas): every thread count,
  // and so every dispatch chunk, must produce the same reports.
  auto fanout_json = [](int threads) {
    CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
    std::vector<net::Ipv4Address> endpoints(
        s.remote_endpoints.begin(),
        s.remote_endpoints.begin() + std::min<std::size_t>(3, s.remote_endpoints.size()));
    std::vector<std::string> domains(
        s.http_test_domains.begin(),
        s.http_test_domains.begin() + std::min<std::size_t>(2, s.http_test_domains.size()));
    trace::CenTraceOptions opts;
    opts.repetitions = 3;
    std::vector<trace::CenTraceReport> reports =
        run_trace_fanout(*s.network, s.remote_client, endpoints, domains,
                         s.control_domain, opts, threads);
    std::string out;
    for (const trace::CenTraceReport& r : reports) out += report::to_json(r);
    return out;
  };
  const std::string reference = fanout_json(1);
  EXPECT_FALSE(reference.empty());
  for (int threads : {0, 2, 3, 8}) {
    EXPECT_EQ(reference, fanout_json(threads))
        << "fan-out thread count " << threads << " changed the result";
  }
}

TEST(ParallelPipeline, WorldPipelineIdenticalAcrossThreadCounts) {
  auto world_json = [](int threads) {
    WorldScenario s = make_world(Scale::kSmall);
    PipelineOptions o;
    o.centrace_repetitions = 3;
    o.run_fuzz = false;  // keep the big scenario fast
    o.threads = threads;
    return report::to_json(run_world_pipeline(s, o));
  };
  const std::string reference = world_json(1);
  EXPECT_EQ(reference, world_json(0));
  EXPECT_EQ(reference, world_json(4));
}

// ------------------------------------------------------- pinned digests
//
// Content digests of the pipeline and fan-out outputs at threads = 1,
// committed as constants. The identity tests above only compare thread
// counts with each other, so a change that shifted every count the same
// way (a shard-merge or seeding change, say) would pass them; these pins
// catch it. A deliberate output change updates the constants and says so
// in CHANGES.md.

namespace {

std::uint64_t digest(std::string_view s) { return FingerprintBuilder().mix(s).digest(); }

struct Pin {
  const char* name;
  std::uint64_t expected;
  std::uint64_t actual;
};

void expect_pins(const std::vector<Pin>& pins) {
  for (const Pin& p : pins) {
    char hex[19];
    std::snprintf(hex, sizeof hex, "0x%016llx", static_cast<unsigned long long>(p.actual));
    EXPECT_EQ(p.expected, p.actual) << p.name << " digest is now " << hex;
  }
}

}  // namespace

TEST(PinnedDigests, PipelineResults) {
  WorldScenario world = make_world(Scale::kSmall);
  PipelineOptions world_opts;
  world_opts.centrace_repetitions = 3;
  world_opts.run_fuzz = false;
  world_opts.threads = 1;
  expect_pins({
      {"AZ", 0x464ef3ad86e0eecdULL, digest(pipeline_json(Country::kAZ, parallel_opts(1)))},
      {"BY", 0xeb36baca8ed4c80bULL, digest(pipeline_json(Country::kBY, parallel_opts(1)))},
      {"KZ", 0x2a359c33352b9dcdULL, digest(pipeline_json(Country::kKZ, parallel_opts(1)))},
      {"RU", 0xba8a8a2c8471427fULL, digest(pipeline_json(Country::kRU, parallel_opts(1)))},
      {"AZ faulty", 0x5a1c73d1350d68d0ULL, digest(pipeline_json(Country::kAZ, faulty_opts(1)))},
      {"world", 0x759aec85e6027491ULL, digest(report::to_json(run_world_pipeline(world, world_opts)))},
  });
}

TEST(PinnedDigests, ObservedPipelineSnapshot) {
  obs::Observer observer;
  PipelineOptions o = parallel_opts(1);
  o.observer = &observer;
  CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
  run_country_pipeline(s, o);
  expect_pins({
      {"KZ metrics", 0xa21ef7b895905f5aULL, digest(report::to_json(observer))},
      {"KZ trace", 0x74a36d3b628660c4ULL, digest(observer.tracer().to_chrome_json())},
      {"KZ journal", 0xf66cae1d42214616ULL, digest(observer.journal().to_json())},
  });
}

TEST(PinnedDigests, TraceFanoutSnapshots) {
  auto snapshot = [](bool faulty) {
    CountryScenario s = make_country(Country::kKZ, Scale::kSmall);
    trace::CenTraceOptions opts;
    opts.repetitions = 3;
    if (faulty) {
      sim::FaultPlan plan;
      plan.transient_loss = 0.05;
      plan.default_link.duplicate = 0.02;
      plan.default_node.icmp_rate_per_sec = 2.0;
      s.network->set_fault_plan(plan);
      opts.retry_backoff = kSecond;
    }
    std::vector<net::Ipv4Address> endpoints(s.remote_endpoints.begin(),
                                            s.remote_endpoints.begin() + 2);
    std::vector<std::string> domains(s.http_test_domains.begin(),
                                     s.http_test_domains.begin() + 2);
    obs::Observer observer;
    std::string out;
    for (const trace::CenTraceReport& r :
         run_trace_fanout(*s.network, s.remote_client, endpoints, domains, s.control_domain,
                          opts, 1, &observer)) {
      out += report::to_json(r, /*include_sweeps=*/true);
      out += '\n';
    }
    out += report::to_json(observer);
    out += observer.tracer().to_chrome_json();
    out += observer.journal().to_json();
    return digest(out);
  };
  expect_pins({
      {"fan-out clean", 0x8df85da43e7a8573ULL, snapshot(false)},
      {"fan-out faulty", 0x93d3c42ba35a8b27ULL, snapshot(true)},
  });
}

// Topology fingerprints are campaign cache-key inputs: a moved value
// re-executes every cached task of that site.
TEST(PinnedDigests, TopologyFingerprints) {
  auto topology_fp = [](const auto& scenario) {
    return scenario.network->topology().fingerprint();
  };
  auto country_fp = [&](Country c, Scale scale) { return topology_fp(make_country(c, scale)); };
  expect_pins({
      {"AZ small", 0xf83b8e613a243ce6ULL, country_fp(Country::kAZ, Scale::kSmall)},
      {"BY small", 0x8713e069f5e0a6a9ULL, country_fp(Country::kBY, Scale::kSmall)},
      {"KZ small", 0x3ee07b27da51bb9bULL, country_fp(Country::kKZ, Scale::kSmall)},
      {"RU small", 0x4dee37c7fb2d0840ULL, country_fp(Country::kRU, Scale::kSmall)},
      {"AZ full", 0xe88ad91fdaf7311dULL, country_fp(Country::kAZ, Scale::kFull)},
      {"BY full", 0x7badf19043bb5bf5ULL, country_fp(Country::kBY, Scale::kFull)},
      {"KZ full", 0x8f96eac3f9fc2b26ULL, country_fp(Country::kKZ, Scale::kFull)},
      {"RU full", 0xaad2b9b3f55e237aULL, country_fp(Country::kRU, Scale::kFull)},
      {"world small", 0x91d7b46d7f90fa2bULL, topology_fp(make_world(Scale::kSmall))},
      {"world 1k", 0xfc7a4e5ef073dfe4ULL,
       topology_fp(make_world(*worldgen::WorldSpec::tier("1k"), 7))},
      {"silent", 0x0b110a4ad6f6d721ULL, topology_fp(make_silent())},
      {"variance", 0x6e6aca2fce99ad64ULL, topology_fp(make_variance_world())},
      {"ambig", 0x9dd6d2c5ac10af0aULL, topology_fp(make_ambig())},
  });
}

// CenFuzz reports for every blocked endpoint of the four small countries,
// on a clean network and under a lossy fault plan. The campaign and the
// pipeline reach fuzz::run through the executor; this pins the tool's own
// output.
TEST(PinnedDigests, FuzzReports) {
  auto fuzz_digest = [](Country country, bool lossy) {
    CountryScenario s = make_country(country, Scale::kSmall);
    fuzz::CenFuzzOptions options;
    if (lossy) {
      sim::FaultPlan plan;
      plan.transient_loss = 0.05;
      plan.default_link.duplicate = 0.02;
      s.network->set_fault_plan(plan);
      options.baseline_attempts = 3;
    }
    FingerprintBuilder fp;
    std::size_t blocked = 0;
    for (std::size_t i = 0; i < s.remote_endpoints.size(); ++i) {
      fuzz::FuzzRunOptions ropts;
      ropts.client = s.remote_client;
      ropts.endpoint = s.remote_endpoints[i];
      ropts.test_domain = s.http_test_domains[i % s.http_test_domains.size()];
      ropts.control_domain = s.control_domain;
      ropts.fuzz = options;
      ropts.seed = 0xf022 + i;
      const fuzz::CenFuzzReport r = fuzz::run(*s.network, ropts);
      if (!r.http_baseline_blocked && !r.tls_baseline_blocked) continue;
      ++blocked;
      fp.mix(report::to_json(r));
    }
    EXPECT_GT(blocked, 0u) << country_code(country);
    return fp.mix(static_cast<std::uint64_t>(blocked)).digest();
  };
  expect_pins({
      {"AZ", 0xdc148cd78aa5f1d3ULL, fuzz_digest(Country::kAZ, false)},
      {"BY", 0x7643e38fc7512ee4ULL, fuzz_digest(Country::kBY, false)},
      {"KZ", 0x9df5525a5d25523dULL, fuzz_digest(Country::kKZ, false)},
      {"RU", 0xab31a8e663d4129cULL, fuzz_digest(Country::kRU, false)},
      {"AZ lossy", 0xd522105cce105f05ULL, fuzz_digest(Country::kAZ, true)},
      {"BY lossy", 0x5daa2320e0073b6fULL, fuzz_digest(Country::kBY, true)},
      {"KZ lossy", 0xe344b4921cec9fb0ULL, fuzz_digest(Country::kKZ, true)},
      {"RU lossy", 0xb2b4c61fbda525a2ULL, fuzz_digest(Country::kRU, true)},
  });
}

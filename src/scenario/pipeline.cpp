#include "scenario/pipeline.hpp"

#include <algorithm>
#include <functional>

#include "centrace/degrade.hpp"
#include "core/seed_salts.hpp"
#include "obs/observer.hpp"
#include "scenario/executor.hpp"

namespace cen::scenario {

std::size_t PipelineResult::blocked_remote() const {
  return static_cast<std::size_t>(std::count_if(
      remote_traces.begin(), remote_traces.end(),
      [](const trace::CenTraceReport& r) { return r.blocked; }));
}

double PipelineResult::mean_remote_confidence() const {
  if (remote_traces.empty()) return 1.0;
  double sum = 0.0;
  for (const trace::CenTraceReport& r : remote_traces) sum += r.confidence.overall;
  return sum / static_cast<double>(remote_traces.size());
}

namespace {

/// What the pipeline measures: a country, or the world scenario (no
/// in-country vantage point).
struct PipelineInput {
  sim::Network& network;
  sim::NodeId remote_client;
  sim::NodeId incountry_client;
  const std::vector<net::Ipv4Address>& remote_endpoints;
  const std::vector<net::Ipv4Address>& foreign_endpoints;  // parallel to all domains
  const std::vector<std::string>& http_domains;
  const std::vector<std::string>& https_domains;
  const std::string& control_domain;
  std::string country;
};

/// Per-task observability shards for the hermetic stages, merged into the
/// pipeline-level observer in task-identity order. Each task records into
/// a private Observer (attached to its network for the task's duration),
/// so no lock sits on any hot path; the merge then lays the per-task
/// timelines end to end on one synthetic axis — task i's spans/journal
/// entries are offset by the summed sim durations of tasks 0..i-1 and
/// stamped with tid i. Everything about the merged state is a function of
/// the task list alone, never of scheduling, which is what makes the
/// exported snapshots byte-identical across worker counts.
class ShardMerger {
 public:
  ShardMerger(ParallelExecutor& exec, std::uint64_t network_seed, obs::Observer* sink)
      : exec_(exec), network_seed_(network_seed), sink_(sink) {}

  /// Run one stage of DAG tasks, task(network, i) each, on the executor,
  /// seeded from the network seed, the stage `salt` and the tasks'
  /// identities; then merge the task shards under one aggregate stage
  /// span named `stage_name`. Without a sink the tasks run unobserved.
  template <class Task>
  void run_stage(std::uint64_t salt, const std::vector<Task>& tasks, const char* stage_name,
                 const std::function<void(sim::Network&, std::size_t)>& task) {
    std::vector<std::uint64_t> keys;
    for (const Task& t : tasks) keys.push_back(t.identity);
    const std::vector<std::uint64_t> seeds = derive_task_seeds(network_seed_, salt, keys);
    if (sink_ == nullptr) {
      exec_.run(seeds, task);
      return;
    }
    std::vector<obs::Observer> shards(seeds.size());
    std::vector<SimTime> ends(seeds.size(), 0);
    exec_.run(seeds, [&](sim::Network& net, std::size_t i) {
      net.set_observer(&shards[i]);
      task(net, i);
      // Every hermetic task starts at sim time 0: its end is its duration.
      ends[i] = net.now();
      net.set_observer(nullptr);
    });
    const SimTime stage_begin = offset_;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      sink_->merge_from(shards[i], next_tid_++, offset_, ends[i]);
      offset_ += ends[i];
    }
    if (!shards.empty()) {
      sink_->tracer().complete(stage_name, "pipeline", stage_begin, offset_);
    }
  }

 private:
  ParallelExecutor& exec_;
  std::uint64_t network_seed_;
  obs::Observer* sink_;
  std::uint32_t next_tid_ = 0;
  SimTime offset_ = 0;
};

/// Every measurement runs as a hermetic executor task on a network reset
/// to a task-derived epoch, so the merged result is identical for every
/// worker count, inline (threads = 0) included.
PipelineResult run(const PipelineInput& in, const PipelineOptions& options) {
  PipelineResult result;
  result.country = in.country;
  sim::Network& net = in.network;
  // Install the plan on the prototype BEFORE cloning so replicas carry it.
  net.set_fault_plan(options.faults);

  ParallelExecutor exec(net, options.threads);
  exec.set_perf_tracking(options.observer != nullptr);
  ShardMerger merger(exec, net.seed(), options.observer);

  trace::CenTraceOptions trace_opts;
  trace_opts.repetitions = options.centrace_repetitions;
  trace_opts.retry_backoff = options.centrace_retry_backoff;
  trace_opts.adaptive_max_retries = options.centrace_adaptive_retries;

  // ---- Stage 1: remote + in-country CenTrace as one hermetic batch. ----
  const std::vector<std::string> http_domains =
      stride_sample(in.http_domains, options.max_domains);
  const std::vector<std::string> https_domains =
      stride_sample(in.https_domains, options.max_domains);
  std::vector<dag::TraceTask> tasks =
      dag::trace_tasks(stride_sample(in.remote_endpoints, options.max_endpoints),
                       {{http_domains, trace::ProbeProtocol::kHttp},
                        {https_domains, trace::ProbeProtocol::kHttps}});
  const std::size_t n_remote = tasks.size();
  if (in.incountry_client != sim::kInvalidNode) {
    dag::append_incountry_tasks(tasks, in.foreign_endpoints,
                                {{in.http_domains, trace::ProbeProtocol::kHttp},
                                 {in.https_domains, trace::ProbeProtocol::kHttps}});
  }
  std::vector<trace::CenTraceReport> reports(tasks.size());
  merger.run_stage(
      salts::kTraceStage, tasks, "stage:centrace", [&](sim::Network& replica, std::size_t i) {
        const dag::TraceTask& t = tasks[i];
        trace::CenTraceOptions opts = trace_opts;
        opts.protocol = t.protocol;
        trace::CenTrace ct(replica, i < n_remote ? in.remote_client : in.incountry_client, opts);
        reports[i] = ct.measure(t.endpoint, *t.domain, in.control_domain);
        // No pipeline consumer reads the per-probe sweep logs, and they hold
        // most of a report's memory (`cen trace --sweeps` keeps them).
        reports[i].control_traces = std::vector<trace::SingleTrace>();
        reports[i].test_traces = std::vector<trace::SingleTrace>();
      });
  for (std::size_t i = 0; i < reports.size(); ++i) {
    (i < n_remote ? result.remote_traces : result.incountry_traces)
        .push_back(std::move(reports[i]));
  }
  const dag::Representatives representatives =
      dag::representatives(tasks, result.remote_traces);

  // ---- Stage 2: CenProbe every distinct in-path blocking-hop IP. ----
  if (options.run_banner) {
    const std::vector<dag::DeviceTask> devices = dag::device_tasks(result.remote_traces);
    std::vector<probe::DeviceProbeReport> probes(devices.size());
    merger.run_stage(salts::kProbeStage, devices, "stage:cenprobe",
                     [&](sim::Network& replica, std::size_t i) {
                       probes[i] =
                           probe::run(replica, probe::ProbeRunOptions{.ip = devices[i].ip});
                     });
    for (std::size_t i = 0; i < devices.size(); ++i) {
      result.device_probes.emplace(devices[i].ip.value(), std::move(probes[i]));
    }
  }

  // ---- Stage 3: CenFuzz blocked endpoints (sampled under the cap). ----
  std::vector<dag::EndpointTask> fuzz_tasks;
  std::vector<fuzz::CenFuzzReport> fuzzes;
  if (options.run_fuzz) {
    fuzz_tasks = dag::fuzz_tasks(representatives, options.fuzz_max_endpoints);
    fuzzes.resize(fuzz_tasks.size());
    merger.run_stage(
        salts::kFuzzStage, fuzz_tasks, "stage:cenfuzz", [&](sim::Network& replica, std::size_t i) {
          fuzz::CenFuzz fuzzer(replica, in.remote_client);
          fuzzes[i] = fuzzer.run(fuzz_tasks[i].endpoint, fuzz_tasks[i].trace->test_domain,
                                 in.control_domain);
        });
  }

  // ---- Stage 4: bundle. ----
  dag::bundle(result.country, representatives, result.device_probes, fuzz_tasks,
              std::move(fuzzes), {}, {}, result.measurements);
  if (options.observer != nullptr) {
    // What was dispatched is a function of the task lists alone, so these
    // pool counts are sim domain, the same at every worker count.
    const PoolStats& pool = exec.perf().pool;
    obs::Registry& m = options.observer->metrics();
    m.counter("pool.jobs").inc(pool.jobs.load(std::memory_order_relaxed));
    m.counter("pool.tasks").inc(pool.tasks.load(std::memory_order_relaxed));
    m.gauge("pool.peak_pending")
        .set_max(static_cast<std::int64_t>(pool.peak_pending.load(std::memory_order_relaxed)));
    export_exec_perf(*options.observer, exec);
  }
  return result;
}

}  // namespace

PipelineResult run_country_pipeline(CountryScenario& scenario,
                                    const PipelineOptions& options) {
  return run({*scenario.network, scenario.remote_client, scenario.incountry_client,
              scenario.remote_endpoints, scenario.foreign_endpoints, scenario.http_test_domains,
              scenario.https_test_domains, scenario.control_domain,
              std::string(country_code(scenario.country))},
             options);
}

ConsistencyStats localisation_consistency(const PipelineResult& result) {
  ConsistencyStats stats;
  // endpoint -> (as -> count, hop_ip -> count, total blocked)
  struct PerEndpoint {
    std::map<std::uint32_t, int> by_as;
    std::map<std::uint32_t, int> by_hop;
    int blocked = 0;
  };
  std::map<std::uint32_t, PerEndpoint> endpoints;
  for (const trace::CenTraceReport& t : result.remote_traces) {
    if (!t.blocked) continue;
    PerEndpoint& pe = endpoints[t.endpoint.value()];
    ++pe.blocked;
    if (t.blocking_as) pe.by_as[t.blocking_as->asn]++;
    if (t.blocking_hop_ip) pe.by_hop[t.blocking_hop_ip->value()]++;
  }
  double as_sum = 0.0, hop_sum = 0.0;
  for (const auto& [ip, pe] : endpoints) {
    if (pe.blocked < 2) continue;
    ++stats.endpoints_with_multiple_blocked;
    int modal_as = 0, modal_hop = 0;
    for (const auto& [asn, n] : pe.by_as) modal_as = std::max(modal_as, n);
    for (const auto& [hop, n] : pe.by_hop) modal_hop = std::max(modal_hop, n);
    as_sum += static_cast<double>(modal_as) / pe.blocked;
    hop_sum += static_cast<double>(modal_hop) / pe.blocked;
  }
  if (stats.endpoints_with_multiple_blocked > 0) {
    stats.mean_modal_as_share =
        as_sum / static_cast<double>(stats.endpoints_with_multiple_blocked);
    stats.mean_modal_hop_share =
        hop_sum / static_cast<double>(stats.endpoints_with_multiple_blocked);
  }
  return stats;
}

std::vector<trace::CenTraceReport> run_trace_fanout(
    sim::Network& net, sim::NodeId client,
    const std::vector<net::Ipv4Address>& endpoints,
    const std::vector<std::string>& domains, const std::string& control_domain,
    const trace::CenTraceOptions& trace_opts, int threads, obs::Observer* observer,
    const trace::DegradationPlan* plan) {
  // The pipeline's stage 1 over one domain list, so a fan-out of the same
  // (endpoint, domain, protocol) set replays the same substreams.
  const std::vector<dag::TraceTask> tasks =
      dag::trace_tasks(endpoints, {{domains, trace_opts.protocol}});
  std::vector<trace::CenTraceReport> reports(tasks.size());
  ParallelExecutor exec(net, threads);
  exec.set_perf_tracking(observer != nullptr);
  ShardMerger(exec, net.seed(), observer)
      .run_stage(salts::kTraceStage, tasks, "stage:centrace",
                 [&](sim::Network& replica, std::size_t i) {
                   reports[i] = trace::measure_with_degradation(
                       replica, client, tasks[i].endpoint, *tasks[i].domain, control_domain,
                       trace_opts, plan);
                 });
  // Wall domain only: the fan-out's deterministic snapshots carry no pool
  // counts (their bytes are pinned by the tests).
  if (observer != nullptr) export_exec_perf(*observer, exec);
  return reports;
}

PipelineResult run_world_pipeline(WorldScenario& scenario, const PipelineOptions& options) {
  return run({*scenario.network, scenario.client, sim::kInvalidNode, scenario.endpoints, {},
              scenario.http_test_domains, scenario.https_test_domains, scenario.control_domain,
              "WORLD"},
             options);
}

}  // namespace cen::scenario

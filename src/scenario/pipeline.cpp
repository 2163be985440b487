#include "scenario/pipeline.hpp"

#include <algorithm>
#include <functional>
#include <set>

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

std::vector<std::size_t> stride_sample_indices(std::size_t n, int cap) {
  std::vector<std::size_t> out;
  if (cap < 0 || static_cast<std::size_t>(cap) >= n) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = i;
    return out;
  }
  out.reserve(static_cast<std::size_t>(cap));
  const std::uint64_t n64 = n;
  const std::uint64_t cap64 = static_cast<std::uint64_t>(cap);
  for (std::uint64_t i = 0; i < cap64; ++i) {
    // (i*n)/cap is strictly increasing for cap < n, so no index repeats —
    // the float-stride version this replaces could truncate two i values
    // onto the same element and silently measure it twice.
    out.push_back(static_cast<std::size_t>(i * n64 / cap64));
  }
  return out;
}

namespace {

std::vector<net::Ipv4Address> sample(const std::vector<net::Ipv4Address>& v, int cap) {
  std::vector<net::Ipv4Address> out;
  for (std::size_t idx : stride_sample_indices(v.size(), cap)) out.push_back(v[idx]);
  return out;
}

std::vector<std::string> take(const std::vector<std::string>& v, int cap) {
  if (cap < 0 || static_cast<int>(v.size()) <= cap) return v;
  return std::vector<std::string>(v.begin(), v.begin() + cap);
}

struct PipelineInput {
  sim::Network* network = nullptr;
  sim::NodeId remote_client = sim::kInvalidNode;
  sim::NodeId incountry_client = sim::kInvalidNode;
  std::vector<net::Ipv4Address> remote_endpoints;
  std::vector<net::Ipv4Address> foreign_endpoints;  // parallel to all domains
  std::vector<std::string> http_domains;
  std::vector<std::string> https_domains;
  std::string control_domain;
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
  explicit ShardMerger(obs::Observer* sink) : sink_(sink) {}

  /// Run one stage, task(network, i) per seed, on `exec`, then merge the
  /// task shards under one aggregate stage span named `stage_name`.
  /// Without a sink the tasks run unobserved.
  void run_stage(ParallelExecutor& exec, const std::vector<std::uint64_t>& seeds,
                 const char* stage_name,
                 const std::function<void(sim::Network&, std::size_t)>& task) {
    if (sink_ == nullptr) {
      exec.run(seeds, task);
      return;
    }
    std::vector<obs::Observer> shards(seeds.size());
    std::vector<SimTime> ends(seeds.size(), 0);
    exec.run(seeds, [&](sim::Network& net, std::size_t i) {
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
  obs::Observer* sink_;
  std::uint32_t next_tid_ = 0;
  SimTime offset_ = 0;
};

trace::CenTraceOptions trace_options(const PipelineOptions& options,
                                     trace::ProbeProtocol protocol) {
  trace::CenTraceOptions o;
  o.repetitions = options.centrace_repetitions;
  o.retry_backoff = options.centrace_retry_backoff;
  o.adaptive_max_retries = options.centrace_adaptive_retries;
  o.protocol = protocol;
  return o;
}

// ---- Stage 4: bundle. ----
void bundle(PipelineResult& result, const std::string& country,
            const std::map<std::uint32_t, const trace::CenTraceReport*>& blocked_by_endpoint,
            const std::map<std::uint32_t, fuzz::CenFuzzReport>& fuzz_by_endpoint) {
  for (const auto& [ep, rep] : blocked_by_endpoint) {
    ml::EndpointMeasurement m;
    m.endpoint_id = net::Ipv4Address(ep).str();
    m.country = country;
    m.trace = *rep;
    auto fz = fuzz_by_endpoint.find(ep);
    if (fz != fuzz_by_endpoint.end()) m.fuzz = fz->second;
    if (rep->blocking_hop_ip) {
      auto pb = result.device_probes.find(rep->blocking_hop_ip->value());
      if (pb != result.device_probes.end()) m.banner = pb->second;
    }
    result.measurements.push_back(std::move(m));
  }
}

/// Every measurement runs as a hermetic executor task on a network reset
/// to a task-derived epoch, so the merged result is identical for every
/// worker count, inline (threads = 0) included.
PipelineResult run(const PipelineInput& in, const PipelineOptions& options) {
  PipelineResult result;
  result.country = in.country;
  sim::Network& net = *in.network;
  // Install the plan on the prototype BEFORE cloning so replicas carry it.
  net.set_fault_plan(options.faults);
  if (options.transient_loss > 0.0) net.set_transient_loss(options.transient_loss);

  ParallelExecutor exec(net, options.threads);
  exec.set_perf_tracking(options.observer != nullptr);
  ShardMerger merger(options.observer);

  const trace::CenTraceOptions http_opts =
      trace_options(options, trace::ProbeProtocol::kHttp);
  const trace::CenTraceOptions https_opts =
      trace_options(options, trace::ProbeProtocol::kHttps);

  std::vector<std::string> http_domains = take(in.http_domains, options.max_domains);
  std::vector<std::string> https_domains = take(in.https_domains, options.max_domains);

  // ---- Stage 1: remote + in-country CenTrace as one hermetic batch. ----
  struct TraceTask {
    sim::NodeId client;
    net::Ipv4Address endpoint;
    const std::string* domain;
    std::uint64_t dhash;  // domain_hash(*domain), computed once per domain
    const trace::CenTraceOptions* opts;
    bool incountry;
  };
  // Hash each domain once up front: the remote fan-out is endpoints x
  // domains, so re-hashing the string per task would cost O(E x D) FNV
  // passes for O(D) distinct strings.
  std::vector<std::uint64_t> http_hashes, https_hashes;
  http_hashes.reserve(http_domains.size());
  for (const std::string& d : http_domains) http_hashes.push_back(domain_hash(d));
  https_hashes.reserve(https_domains.size());
  for (const std::string& d : https_domains) https_hashes.push_back(domain_hash(d));

  std::vector<TraceTask> tasks;
  for (net::Ipv4Address endpoint : sample(in.remote_endpoints, options.max_endpoints)) {
    for (std::size_t d = 0; d < http_domains.size(); ++d) {
      tasks.push_back({in.remote_client, endpoint, &http_domains[d], http_hashes[d],
                       &http_opts, false});
    }
    for (std::size_t d = 0; d < https_domains.size(); ++d) {
      tasks.push_back({in.remote_client, endpoint, &https_domains[d], https_hashes[d],
                       &https_opts, false});
    }
  }
  const std::size_t n_remote = tasks.size();
  if (in.incountry_client != sim::kInvalidNode && !in.foreign_endpoints.empty()) {
    std::size_t idx = 0;
    for (const std::string& domain : in.http_domains) {
      if (idx >= in.foreign_endpoints.size()) break;
      tasks.push_back({in.incountry_client, in.foreign_endpoints[idx++], &domain,
                       domain_hash(domain), &http_opts, true});
    }
    for (const std::string& domain : in.https_domains) {
      if (idx >= in.foreign_endpoints.size()) break;
      tasks.push_back({in.incountry_client, in.foreign_endpoints[idx++], &domain,
                       domain_hash(domain), &https_opts, true});
    }
  }

  std::vector<std::uint64_t> trace_keys;
  trace_keys.reserve(tasks.size());
  for (const TraceTask& t : tasks) {
    std::uint64_t tag = static_cast<std::uint64_t>(t.opts->protocol) |
                        (t.incountry ? 0x8u : 0x0u);
    trace_keys.push_back(task_key_hashed(t.endpoint.value(), t.dhash, tag));
  }
  std::vector<trace::CenTraceReport> reports(tasks.size());
  merger.run_stage(exec, derive_task_seeds(net.seed(), salts::kTraceStage, trace_keys),
                   "stage:centrace", [&](sim::Network& replica, std::size_t i) {
                     const TraceTask& t = tasks[i];
                     trace::CenTrace ct(replica, t.client, *t.opts);
                     reports[i] = ct.measure(t.endpoint, *t.domain, in.control_domain);
                   });
  for (std::size_t i = 0; i < reports.size(); ++i) {
    (i < n_remote ? result.remote_traces : result.incountry_traces)
        .push_back(std::move(reports[i]));
  }

  // ---- Representative blocked trace per endpoint. ----
  std::map<std::uint32_t, const trace::CenTraceReport*> blocked_by_endpoint;
  for (const trace::CenTraceReport& r : result.remote_traces) {
    if (r.blocked) blocked_by_endpoint.emplace(r.endpoint.value(), &r);
  }

  // ---- Stage 2: CenProbe every distinct in-path blocking-hop IP. ----
  if (options.run_banner) {
    std::vector<net::Ipv4Address> probe_ips;
    std::set<std::uint32_t> seen;
    for (const trace::CenTraceReport& r : result.remote_traces) {
      if (!r.blocked || !r.blocking_hop_ip ||
          r.placement == trace::DevicePlacement::kOnPath) {
        continue;
      }
      if (seen.insert(r.blocking_hop_ip->value()).second) {
        probe_ips.push_back(*r.blocking_hop_ip);
      }
    }
    std::vector<std::uint64_t> probe_keys;
    probe_keys.reserve(probe_ips.size());
    for (net::Ipv4Address ip : probe_ips) {
      probe_keys.push_back(task_key(ip.value(), {}, 0x10));
    }
    std::vector<probe::DeviceProbeReport> probes(probe_ips.size());
    merger.run_stage(exec, derive_task_seeds(net.seed(), salts::kProbeStage, probe_keys),
                     "stage:cenprobe", [&](sim::Network& replica, std::size_t i) {
                       probes[i] = probe::run(
                           replica, probe::ProbeRunOptions{.ip = probe_ips[i]});
                     });
    for (std::size_t i = 0; i < probe_ips.size(); ++i) {
      result.device_probes.emplace(probe_ips[i].value(), std::move(probes[i]));
    }
  }

  // ---- Stage 3: CenFuzz blocked endpoints (sampled under the cap). ----
  std::vector<std::uint32_t> blocked_eps;
  for (const auto& [ip, report] : blocked_by_endpoint) blocked_eps.push_back(ip);
  std::map<std::uint32_t, fuzz::CenFuzzReport> fuzz_by_endpoint;
  if (options.run_fuzz) {
    std::vector<std::uint32_t> fuzz_targets;
    for (std::size_t idx :
         stride_sample_indices(blocked_eps.size(), options.fuzz_max_endpoints)) {
      fuzz_targets.push_back(blocked_eps[idx]);
    }
    std::vector<std::uint64_t> fuzz_keys;
    fuzz_keys.reserve(fuzz_targets.size());
    for (std::uint32_t ep : fuzz_targets) {
      fuzz_keys.push_back(task_key(ep, blocked_by_endpoint.at(ep)->test_domain, 0x20));
    }
    std::vector<fuzz::CenFuzzReport> fuzzes(fuzz_targets.size());
    merger.run_stage(exec, derive_task_seeds(net.seed(), salts::kFuzzStage, fuzz_keys),
                     "stage:cenfuzz", [&](sim::Network& replica, std::size_t i) {
                       const trace::CenTraceReport* rep =
                           blocked_by_endpoint.at(fuzz_targets[i]);
                       fuzz::CenFuzz fuzzer(replica, in.remote_client);
                       fuzzes[i] = fuzzer.run(net::Ipv4Address(fuzz_targets[i]),
                                              rep->test_domain, in.control_domain);
                     });
    for (std::size_t i = 0; i < fuzz_targets.size(); ++i) {
      fuzz_by_endpoint.emplace(fuzz_targets[i], std::move(fuzzes[i]));
    }
  }

  bundle(result, in.country, blocked_by_endpoint, fuzz_by_endpoint);
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
  PipelineInput in;
  in.network = scenario.network.get();
  in.remote_client = scenario.remote_client;
  in.incountry_client = scenario.incountry_client;
  in.remote_endpoints = scenario.remote_endpoints;
  in.foreign_endpoints = scenario.foreign_endpoints;
  in.http_domains = scenario.http_test_domains;
  in.https_domains = scenario.https_test_domains;
  in.control_domain = scenario.control_domain;
  in.country = std::string(country_code(scenario.country));
  return run(in, options);
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
  struct Task {
    net::Ipv4Address endpoint;
    const std::string* domain;
    std::uint64_t dhash;
  };
  // One FNV pass per distinct domain, not per (endpoint, domain) pair.
  std::vector<std::uint64_t> dhashes;
  dhashes.reserve(domains.size());
  for (const std::string& d : domains) dhashes.push_back(domain_hash(d));

  std::vector<Task> tasks;
  tasks.reserve(endpoints.size() * domains.size());
  for (net::Ipv4Address endpoint : endpoints) {
    for (std::size_t d = 0; d < domains.size(); ++d) {
      tasks.push_back({endpoint, &domains[d], dhashes[d]});
    }
  }

  // Same key/salt scheme as the pipeline's stage 1, so a fan-out of the
  // same (endpoint, domain, protocol) set replays the same substreams.
  std::vector<std::uint64_t> keys;
  keys.reserve(tasks.size());
  for (const Task& t : tasks) {
    keys.push_back(task_key_hashed(t.endpoint.value(), t.dhash,
                                   static_cast<std::uint64_t>(trace_opts.protocol)));
  }
  std::vector<trace::CenTraceReport> reports(tasks.size());
  ParallelExecutor exec(net, threads);
  exec.set_perf_tracking(observer != nullptr);
  ShardMerger(observer).run_stage(
      exec, derive_task_seeds(net.seed(), salts::kTraceStage, keys), "stage:centrace",
      [&](sim::Network& replica, std::size_t i) {
        reports[i] = trace::measure_with_degradation(replica, client, tasks[i].endpoint,
                                                     *tasks[i].domain, control_domain,
                                                     trace_opts, plan);
      });
  // Wall domain only: the fan-out's deterministic snapshots carry no pool
  // counts (their bytes are pinned by the tests).
  if (observer != nullptr) export_exec_perf(*observer, exec);
  return reports;
}

PipelineResult run_world_pipeline(WorldScenario& scenario, const PipelineOptions& options) {
  PipelineInput in;
  in.network = scenario.network.get();
  in.remote_client = scenario.client;
  in.remote_endpoints = scenario.endpoints;
  in.http_domains = scenario.http_test_domains;
  in.https_domains = scenario.https_test_domains;
  in.control_domain = scenario.control_domain;
  in.country = "WORLD";
  return run(in, options);
}

}  // namespace cen::scenario

// The full measurement pipeline over a scenario, as the paper runs it: the
// per-site DAG of scenario/dag.hpp (CenTrace, CenProbe of the in-path
// devices, CenFuzz of the blocked endpoints, one ml::EndpointMeasurement
// row per blocked endpoint), planned exactly as campaign::run plans it,
// plus in-country CenTrace against the real servers where the scenario
// has a vantage point. Unlike the campaign it keeps every report in
// memory, caches nothing and records each task into its own observer
// shard. Shared by the benches, the examples and the integration tests.
#pragma once

#include <map>
#include <vector>

#include "ml/features.hpp"
#include "netsim/faults.hpp"
#include "scenario/country.hpp"
#include "scenario/dag.hpp"
#include "scenario/world.hpp"

namespace cen::obs {
class Observer;
}

namespace cen::scenario {

struct PipelineOptions {
  int centrace_repetitions = 11;
  /// Cap endpoints measured (-1 = all); capped runs sample with a stride
  /// so every AS keeps representation.
  int max_endpoints = -1;
  /// Cap domains per protocol (-1 = all), stride-sampled like endpoints.
  int max_domains = -1;
  bool run_banner = true;
  bool run_fuzz = true;
  /// Cap the endpoints fuzzed (-1 = all blocked endpoints). Fuzzing is the
  /// most request-hungry stage; the cap samples evenly across devices.
  int fuzz_max_endpoints = -1;
  /// Fault plan installed on the network before measuring (the default
  /// plan is inert — identical to a fault-free run).
  sim::FaultPlan faults;
  /// CenTrace backoff/adaptive-retry knobs for runs under faults.
  SimTime centrace_retry_backoff = 0;
  int centrace_adaptive_retries = 6;
  /// Worker threads for the measurement stages.
  ///   -1  one worker per hardware thread (default);
  ///    0  inline: no pool, every task runs on the scenario network itself;
  ///   >=1 a pool of that many workers, each on its own replica.
  /// Results are identical for EVERY value: each task runs on a network
  /// reset to an epoch derived from the task identity alone, so
  /// scheduling cannot influence results.
  int threads = -1;
  /// Observability sink (see src/obs/). Every task records into a private
  /// per-task shard; shards are merged into this observer in
  /// task-identity order, so the sim-domain metrics, spans and journal
  /// are byte-identical for every `threads` value — the same contract the
  /// measurement results obey. nullptr disables all instrumentation
  /// (near-zero cost).
  obs::Observer* observer = nullptr;
};

struct PipelineResult {
  std::string country;
  /// Every remote CenTrace report (endpoint × domain × protocol). No
  /// report keeps its per-probe sweep logs (control_traces, test_traces).
  std::vector<trace::CenTraceReport> remote_traces;
  /// In-country CenTrace reports (foreign servers hosting the domains).
  std::vector<trace::CenTraceReport> incountry_traces;
  /// Banner-grab results keyed by probed device IP.
  std::map<std::uint32_t, probe::DeviceProbeReport> device_probes;
  /// One bundle per blocked endpoint (representative blocked trace + fuzz +
  /// banner data) — the clustering input.
  std::vector<ml::EndpointMeasurement> measurements;

  std::size_t blocked_remote() const;
  /// Mean CenTrace confidence over the remote traces (1.0 when empty).
  double mean_remote_confidence() const;
};

PipelineResult run_country_pipeline(CountryScenario& scenario,
                                    const PipelineOptions& options = {});

/// Same pipeline over the worldwide blockpage scenario (labels everywhere).
PipelineResult run_world_pipeline(WorldScenario& scenario,
                                  const PipelineOptions& options = {});

/// §4.2's self-validation: "our results are consistent across multiple
/// domains for the same vantage points". For endpoints with two or more
/// blocked measurements, how often do they agree on the blocking AS /
/// blocking hop IP? (Distinct devices may legitimately block different
/// domains for one endpoint, so this measures modal agreement.)
struct ConsistencyStats {
  std::size_t endpoints_with_multiple_blocked = 0;
  double mean_modal_as_share = 0.0;   // share of an endpoint's blocked CTs
  double mean_modal_hop_share = 0.0;  // agreeing with its modal AS / hop IP
};

ConsistencyStats localisation_consistency(const PipelineResult& result);

/// CenTrace fan-out over every (endpoint × domain) pair, planned and
/// seeded as the pipeline's trace stage (dag::trace_tasks with one domain
/// list). Backs `cen trace`: the reports — and, when `observer` is
/// non-null, the merged sim-domain metrics/spans/journal — are
/// byte-identical for every `threads` value (as PipelineOptions::threads).
/// `plan` (optional) runs every task through
/// trace::measure_with_degradation, escalating unlocalized blocked
/// verdicts to multi-vantage tomography; it shapes each task's work, not
/// its seed.
std::vector<trace::CenTraceReport> run_trace_fanout(
    sim::Network& net, sim::NodeId client,
    const std::vector<net::Ipv4Address>& endpoints,
    const std::vector<std::string>& domains, const std::string& control_domain,
    const trace::CenTraceOptions& trace_options, int threads,
    obs::Observer* observer = nullptr, const trace::DegradationPlan* plan = nullptr);

}  // namespace cen::scenario

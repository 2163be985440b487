// The paper-scale campaign engine.
//
// campaign::run() compiles a CampaignSpec into a deterministic task DAG —
// CenTrace over every (endpoint, domain, protocol), CenProbe over every
// discovered in-path device IP, CenFuzz over every blocked endpoint (under
// the fuzz cap), then feature extraction + DBSCAN clustering; the per-site
// stages are planned by scenario/dag.hpp, as the pipeline's are — and
// executes it over the hermetic ParallelExecutor, one dispatch per stage.
// Three contracts, all covered by tests/test_campaign.cpp:
//
//  * Thread identity: per-task seeds derive from the task identity alone
//    (derive_task_seeds over the FULL task list), so the output is
//    byte-identical for threads = 0 (inline hermetic), 1 and N.
//  * Incremental cache: every task result is keyed by a content hash of
//    everything that determines it (network fingerprint, campaign seed,
//    fault-plan fingerprint, stage, task identity, tool options). Editing
//    one knob re-executes exactly the invalidated tasks; a no-op re-run
//    executes zero tool tasks.
//  * Crash-safe resume: a stage's tasks are grouped into checkpoint
//    batches of spec.batch_size. Each batch is appended to the cache file
//    and flushed as soon as it and every earlier batch have finished, so
//    the file's bytes are the same at every thread count and a killed
//    campaign loses only the batches in flight. Because every downstream
//    stage consumes *decoded* records (fresh and cached alike) and outputs
//    are rendered from records in task-identity order, the resumed output
//    is byte-identical to an uninterrupted run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"
#include "ml/features.hpp"

namespace cen::obs {
class Observer;
}

namespace cen::campaign {

/// Execution knobs — everything here is forbidden from influencing
/// results (only wall time and durability).
struct RunControl {
  /// Worker threads: -1 = one per hardware thread, 0 = inline hermetic
  /// (no pool; each task runs on the scenario network after a
  /// reset_epoch to its task seed), >= 1 = a pool of that many workers.
  /// Results are byte-identical for every value.
  int threads = -1;
  /// Result-cache / checkpoint JSONL path. Empty = in-memory only (no
  /// persistence; within-run dedup still applies).
  std::string cache_path;
  /// Stop after this many *executed* checkpoint batches (batches fully
  /// served from cache are free and never counted). A stage dispatches
  /// only the batches the remaining budget allows. -1 = unlimited. A
  /// stopped run returns complete = false; re-running with the same cache
  /// resumes where it left off.
  int max_batches = -1;
  /// Observability sink (see docs/CAMPAIGN.md for the domain split:
  /// record-derived metrics are sim-domain and run-invariant; cache/batch
  /// bookkeeping is wall-domain and excluded from deterministic
  /// snapshots). nullptr disables instrumentation.
  obs::Observer* observer = nullptr;
};

/// Per-stage bookkeeping. `tasks` is determined by the spec alone;
/// `executed` / `cache_hits` / `batches` depend on the cache state.
struct StageStats {
  std::size_t tasks = 0;
  std::size_t executed = 0;
  std::size_t cache_hits = 0;
  std::size_t batches = 0;
};

/// One task's persisted result: the stage tag, the task identity, the
/// country it belongs to and the tool's JSON report document.
struct CampaignRecord {
  std::string stage;
  std::string task_id;
  std::string country;
  std::string json;
};

struct CampaignResult {
  /// False when max_batches stopped the run early. Downstream stages and
  /// clustering are skipped for incomplete runs; re-run to resume.
  bool complete = false;

  /// Spec identity echoed into the summary.
  std::string name;
  std::vector<std::string> countries;

  /// All task records in task-identity order (country, then stage, then
  /// task order) — independent of which tasks came from cache.
  std::vector<CampaignRecord> records;

  StageStats trace;
  StageStats probe;
  StageStats fuzz;
  StageStats ambig;
  /// Endpoints whose representative trace observed blocking.
  std::size_t blocked_endpoints = 0;

  /// Clustering input/output (empty when the cluster stage is off or the
  /// run is incomplete).
  std::vector<ml::EndpointMeasurement> measurements;
  std::vector<std::string> row_ids;
  std::vector<int> cluster_labels;  // ml::kNoise = -1
  int n_clusters = 0;
  std::size_t noise_rows = 0;

  std::size_t tool_tasks_executed() const {
    return trace.executed + probe.executed + fuzz.executed + ambig.executed;
  }
  std::size_t cache_hits() const {
    return trace.cache_hits + probe.cache_hits + fuzz.cache_hits + ambig.cache_hits;
  }
  std::size_t batches_executed() const {
    return trace.batches + probe.batches + fuzz.batches + ambig.batches;
  }

  /// One line per record, task-identity order — byte-identical across
  /// thread counts, cache states and resume histories (for complete runs).
  std::string to_jsonl() const;

  /// Run-invariant campaign summary (spec identity, per-stage task
  /// counts, blocking/clustering results). Deliberately excludes
  /// executed/cache-hit counts, which belong to the wall domain.
  std::string summary_json() const;
};

/// Execute a campaign. Builds each country scenario from the spec,
/// installs the spec's fault plan, then runs the stage DAG with the
/// incremental cache at `control.cache_path`.
CampaignResult run(const CampaignSpec& spec, const RunControl& control = {});

}  // namespace cen::campaign

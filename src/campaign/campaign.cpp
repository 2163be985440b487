#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "campaign/cache.hpp"
#include "centrace/degrade.hpp"
#include "core/json.hpp"
#include "core/seed_salts.hpp"
#include "core/thread_pool.hpp"
#include "ml/dbscan.hpp"
#include "obs/observer.hpp"
#include "report/from_json.hpp"
#include "report/json_report.hpp"
#include "scenario/executor.hpp"
#include "scenario/pipeline.hpp"
#include "scenario/silent.hpp"
#include "scenario/world.hpp"

namespace cen::campaign {

namespace dag = scenario::dag;

namespace {

/// Campaign-wide executed-batch budget (RunControl::max_batches).
struct Budget {
  int max_batches = -1;
  int used = 0;
  bool exhausted() const { return max_batches >= 0 && used >= max_batches; }
};

/// One stage's compiled task list: parallel arrays over task index.
struct StageTasks {
  std::vector<std::string> ids;        // "<CC>:<stage>:<subject>..."
  std::vector<std::string> cache_keys; // 128-bit content-hash keys
  std::vector<std::uint64_t> identity; // the DAG's identity key, for seed derivation
};

/// The run's pool for the work it does beside the executors: checking
/// cache lines and decoding hits. It is made on first use, so a run that
/// never needs it (a cold one) starts no threads for it; null when the
/// run is inline (RunControl::threads == 0).
class RunPool {
 public:
  explicit RunPool(int threads) : workers_(scenario::resolve_threads(threads)) {}

  ThreadPool* get() {
    if (workers_ > 0 && pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(workers_);
    return pool_.get();
  }

 private:
  int workers_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Whether `path` names a file that is not empty.
bool has_bytes(const std::string& path) {
  std::error_code error;
  const std::uintmax_t size = std::filesystem::file_size(path, error);
  return !error && size > 0;
}

/// What every stage of one site runs against.
struct StageContext {
  sim::Network& net;
  const CampaignSpec& spec;
  const RunControl& control;
  ResultCache& cache;
  RunPool& pool;
  Budget& budget;
  const std::string& code;
  std::vector<CampaignRecord>& records;
  /// Each record's result bytes, owned by the cache until hand_over().
  std::vector<const std::string*>& record_docs;
  std::unique_ptr<scenario::ParallelExecutor> exec;  // lazy, shared by stages
};

void stage_span(obs::Observer* observer, const std::string& country,
                std::string_view stage, std::size_t task_count) {
  if (observer == nullptr) return;
  // Span boundaries must be run-invariant (span counts and contents show
  // up in deterministic snapshots), so the "duration" encodes the task
  // count rather than any execution timing.
  observer->tracer().complete("campaign:" + country + ":" + std::string(stage),
                              "campaign", 0, static_cast<SimTime>(task_count));
}

/// Add the host time since `start` to a wall-domain counter (host timing:
/// --perf-report only, never in deterministic snapshots).
void add_wall_ns(obs::Observer* observer, const char* name,
                 std::chrono::steady_clock::duration elapsed) {
  if (observer == nullptr) return;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed);
  observer->metrics()
      .counter(name, obs::Domain::kWall)
      .inc(static_cast<std::uint64_t>(ns.count()));
}

void add_wall_ns(obs::Observer* observer, const char* name,
                 std::chrono::steady_clock::time_point start) {
  add_wall_ns(observer, name, std::chrono::steady_clock::now() - start);
}

/// Run one stage and return every task's decoded report in task order,
/// cache hits and fresh results alike (each decoded exactly once).
///
/// Every cache hit is decoded first, in one pass on the run's pool when the
/// stage has two hits or more; each task writes only its own slots. The
/// stage is then cut into checkpoint batches of spec.batch_size tasks. A
/// serial planning pass walks them in order, serves the hits that decoded,
/// and stops at the first batch with uncached work that the batch budget
/// no longer allows.
/// Every uncached task of the planned batches then runs in ONE executor
/// dispatch, so every worker stays busy. Workers encode and decode their
/// own results; a batch is put + flushed by the worker that completes it,
/// as soon as it and every earlier batch have finished. The cache file
/// therefore receives the same bytes in the same order at every thread
/// count, and a killed run loses only the batches still in flight.
///
/// A task's result bytes live in the cache alone: the stage holds a
/// pointer per task, and a duplicate task shares its source's.
///
/// Returns nullopt when the budget ran out with work still pending (the
/// campaign must stop; the planned batches are durable). On success the
/// stage's records are appended to the site's output.
template <typename Report>
std::optional<std::vector<Report>> run_stage(
    StageContext& ctx, StageStats& stats, std::string_view stage, const StageTasks& tasks,
    std::uint64_t salt, std::optional<Report> (*decode)(std::string_view),
    const std::function<std::string(sim::Network&, std::size_t)>& execute) {
  const std::size_t n = tasks.ids.size();
  stats.tasks += n;
  std::vector<const std::string*> docs(n, nullptr);  // set: served or executed
  std::vector<Report> reports(n);

  // Decode the hits. A task is served from the cache only when its record
  // still decodes (a hand-edited or damaged record is re-executed).
  const auto decode_start = std::chrono::steady_clock::now();
  std::vector<std::pair<std::size_t, const std::string*>> hits;  // (task, cached result)
  for (std::size_t i = 0; i < n; ++i) {
    if (const std::string* doc = ctx.cache.find(tasks.cache_keys[i])) hits.emplace_back(i, doc);
  }
  auto decode_hits = [&](std::size_t begin, std::size_t end) {
    for (std::size_t h = begin; h < end; ++h) {
      const auto [i, doc] = hits[h];
      std::optional<Report> rep = decode(*doc);
      if (!rep) continue;
      docs[i] = doc;
      reports[i] = std::move(*rep);
    }
  };
  ThreadPool* pool = hits.size() >= 2 ? ctx.pool.get() : nullptr;
  if (pool == nullptr) {
    decode_hits(0, hits.size());
  } else {
    pool->parallel_for_chunked(
        hits.size(), scenario::dispatch_chunk(hits.size(), pool->size()),
        [&](int, std::size_t begin, std::size_t end) { decode_hits(begin, end); });
  }
  add_wall_ns(ctx.control.observer, "campaign.hit_decode_ns", decode_start);

  // Plan. A task is a hit when its record decoded above, or when an
  // earlier planned batch executes the same key: its result is copied
  // over after the dispatch, as a batch-at-a-time loop would have found it
  // in the cache.
  std::vector<std::size_t> pending;    // uncached task indices, batch by batch
  std::vector<std::size_t> batch_end;  // end offset in `pending` per planned batch
  std::vector<std::pair<std::size_t, std::size_t>> copies;  // (task, executed task)
  std::map<std::string_view, std::size_t> planned;           // key -> last executed task
  bool stopped = false;
  const auto batch = static_cast<std::size_t>(ctx.spec.batch_size);
  for (std::size_t start = 0; start < n; start += batch) {
    const std::size_t end = std::min(start + batch, n);
    const std::size_t first = pending.size();
    for (std::size_t i = start; i < end; ++i) {
      auto src = planned.find(tasks.cache_keys[i]);
      if (src != planned.end()) {
        copies.emplace_back(i, src->second);
        ++stats.cache_hits;
        continue;
      }
      if (docs[i] != nullptr) {
        ++stats.cache_hits;
      } else {
        pending.push_back(i);
      }
    }
    if (pending.size() == first) continue;
    if (ctx.budget.exhausted()) {
      pending.resize(first);
      stopped = true;
      break;
    }
    for (std::size_t p = first; p < pending.size(); ++p) {
      planned[tasks.cache_keys[pending[p]]] = pending[p];
    }
    batch_end.push_back(pending.size());
    ++ctx.budget.used;
    ++stats.batches;
    stats.executed += pending.size() - first;
  }

  if (!pending.empty()) {
    // Seeds always derive over the FULL task list: the cache state must
    // never be able to change which substream a task runs under.
    const std::vector<std::uint64_t> seeds =
        scenario::derive_task_seeds(ctx.net.seed(), salt, tasks.identity);
    std::vector<std::size_t> batch_of(pending.size());
    std::vector<std::size_t> unfinished(batch_end.size());
    for (std::size_t b = 0, p = 0; b < batch_end.size(); ++b) {
      unfinished[b] = batch_end[b] - p;
      for (; p < batch_end[b]; ++p) batch_of[p] = b;
    }
    std::vector<std::string> fresh(pending.size());  // executed, not yet put
    std::mutex write_mu;
    std::size_t written = 0;  // batches durable on disk, in order
    auto run_task = [&](sim::Network& worker, std::size_t p) {
      const std::size_t i = pending[p];
      fresh[p] = execute(worker, i);
      reports[i] = decode(fresh[p]).value();
      std::lock_guard<std::mutex> lock(write_mu);
      if (--unfinished[batch_of[p]] != 0) return;
      for (; written < batch_end.size() && unfinished[written] == 0; ++written) {
        for (std::size_t q = written == 0 ? 0 : batch_end[written - 1]; q < batch_end[written];
             ++q) {
          const std::size_t t = pending[q];
          docs[t] = &ctx.cache.put(tasks.cache_keys[t], stage, tasks.ids[t], std::move(fresh[q]));
        }
        ctx.cache.flush();  // batch boundary == crash-checkpoint boundary
      }
    };
    if (ctx.exec == nullptr) {
      ctx.exec = std::make_unique<scenario::ParallelExecutor>(ctx.net, ctx.control.threads);
      ctx.exec->set_perf_tracking(ctx.control.observer != nullptr);
    }
    std::vector<std::uint64_t> sub_seeds;
    sub_seeds.reserve(pending.size());
    for (std::size_t i : pending) sub_seeds.push_back(seeds[i]);
    ctx.exec->run(sub_seeds, run_task);
  }
  if (stopped) return std::nullopt;

  for (const auto& [i, src] : copies) {
    docs[i] = docs[src];
    reports[i] = reports[src];
  }
  for (std::size_t i = 0; i < n; ++i) {
    ctx.records.push_back({std::string(stage), tasks.ids[i], ctx.code, {}});
  }
  ctx.record_docs.insert(ctx.record_docs.end(), docs.begin(), docs.end());
  stage_span(ctx.control.observer, ctx.code, stage, n);
  return reports;
}

/// Give each record its result bytes, which the cache held until now:
/// moved out on a document's last use and copied before it (a repeated
/// site or a duplicate task shares a document).
void hand_over(ResultCache& cache, const std::vector<const std::string*>& docs,
               std::vector<CampaignRecord>& records) {
  std::unordered_map<const std::string*, std::size_t> last_use;
  last_use.reserve(docs.size());
  for (std::size_t i = 0; i < docs.size(); ++i) last_use[docs[i]] = i;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    // Not `?:`: with a const lvalue on one side, its type is a const
    // string, and assigning that copies.
    if (last_use[docs[i]] == i) {
      records[i].json = cache.release(docs[i]);
    } else {
      records[i].json = *docs[i];
    }
  }
}

/// The fuzz stage's probe tables, one per distinct domain. The first task
/// that needs a table builds it, so a stage whose tasks are all cached
/// builds none; after that every worker of the dispatch reads it shared.
class ProbeTables {
 public:
  explicit ProbeTables(const std::vector<std::string>& domains) {
    for (const std::string& d : domains) slots_.try_emplace(d);
  }

  /// The table of `domain`, one of the constructor's domains.
  std::shared_ptr<const fuzz::ProbeSet> get(const std::string& domain) {
    Slot& slot = slots_.at(domain);
    std::call_once(slot.built, [&] {
      slot.set = std::make_shared<const fuzz::ProbeSet>(fuzz::ProbeSet::build(domain));
    });
    return slot.set;
  }

 private:
  struct Slot {
    std::once_flag built;
    std::shared_ptr<const fuzz::ProbeSet> set;
  };
  std::map<std::string, Slot> slots_;  // fixed before any worker reads it
};

/// One measurement site: the per-network slice of campaign state the
/// stage loop runs against. Country campaigns build one site per country;
/// a world campaign (spec.world) builds a single worldgen-backed site.
/// Both reach the stage loop through this shape, so the task DAG, cache
/// keys and seed substreams are computed identically.
struct Site {
  std::string code;  ///< country code, or the world spec's name
  std::unique_ptr<sim::Network> network;
  sim::NodeId client = sim::kInvalidNode;
  std::vector<net::Ipv4Address> endpoints;
  std::vector<std::string> http_domains;
  std::vector<std::string> https_domains;
  std::string control_domain;
  /// Extra tomography vantages (world sites have none: the generated
  /// world hosts a single measurement client).
  std::vector<sim::NodeId> vantages;
};

Site build_country_site(scenario::Country c, const CampaignSpec& spec) {
  scenario::CountryScenario sc = scenario::make_country(c, spec.scale, spec.seed);
  Site site;
  site.code = std::string(scenario::country_code(c));
  site.client = sc.remote_client;
  site.endpoints = std::move(sc.remote_endpoints);
  site.http_domains = std::move(sc.http_test_domains);
  site.https_domains = std::move(sc.https_test_domains);
  site.control_domain = std::move(sc.control_domain);
  site.vantages = scenario::tomography_vantages(sc, spec.trace_vantages);
  site.network = std::move(sc.network);
  return site;
}

Site build_world_site(const CampaignSpec& spec) {
  scenario::WorldScenario ws = scenario::make_world(*spec.world, spec.seed);
  Site site;
  site.code = spec.world->name;
  site.client = ws.client;
  site.endpoints = std::move(ws.endpoints);
  site.http_domains = std::move(ws.http_test_domains);
  site.https_domains = std::move(ws.https_test_domains);
  site.control_domain = std::move(ws.control_domain);
  site.network = std::move(ws.network);
  return site;
}

}  // namespace

CampaignResult run(const CampaignSpec& spec, const RunControl& control) {
  CampaignResult result;
  result.name = spec.name;
  const bool world_mode = spec.world.has_value();
  const std::vector<scenario::Country> countries =
      world_mode ? std::vector<scenario::Country>{} : spec.effective_countries();
  if (world_mode) {
    result.countries.push_back(spec.world->name);
  } else {
    for (scenario::Country c : countries) {
      result.countries.emplace_back(scenario::country_code(c));
    }
  }

  obs::Observer* observer = control.observer;
  ResultCache cache(control.cache_path);
  RunPool run_pool(control.threads);
  const auto load_start = std::chrono::steady_clock::now();
  // A missing or empty cache file has no lines to check: no pool for it.
  const std::size_t preloaded =
      cache.load(has_bytes(control.cache_path) ? run_pool.get() : nullptr);
  add_wall_ns(observer, "campaign.cache_load_ns", load_start);
  Budget budget{control.max_batches, 0};
  if (observer != nullptr) {
    // Cache/batch bookkeeping depends on the run history, not the spec —
    // wall domain, excluded from deterministic snapshots.
    observer->metrics()
        .counter("campaign.cache_preloaded", obs::Domain::kWall)
        .inc(preloaded);
  }

  const std::uint64_t fault_fp = spec.faults.fingerprint();
  // Every exit hands the records their bytes from the cache.
  std::vector<const std::string*> record_docs;
  auto finish = [&] {
    hand_over(cache, record_docs, result.records);
    return std::move(result);
  };

  const std::size_t site_count = world_mode ? 1 : countries.size();
  for (std::size_t site_index = 0; site_index < site_count; ++site_index) {
    // Sites are built one at a time, so at most one scenario network is
    // resident (matters for 1M-endpoint worlds).
    const auto build_start = std::chrono::steady_clock::now();
    Site site = world_mode ? build_world_site(spec)
                           : build_country_site(countries[site_index], spec);
    add_wall_ns(observer, "campaign.site_build_ns", build_start);
    if (!spec.http_domains.empty()) site.http_domains = spec.http_domains;
    if (!spec.https_domains.empty()) site.https_domains = spec.https_domains;
    sim::Network& net = *site.network;
    if (spec.evolution && spec.evolution_epoch > 0) {
      // Replay censor evolution up to the spec's epoch on the fresh
      // baseline. Device mutations land in the network fingerprint below,
      // so churned sites (and only churned sites) miss the result cache.
      // Rule adds draw from the *measured* domain lists so churn is
      // observable in the diffs.
      std::vector<std::string> pool = site.http_domains;
      pool.insert(pool.end(), site.https_domains.begin(), site.https_domains.end());
      longit::apply_evolution(net, site.code, *spec.evolution,
                              spec.evolution_epoch, pool);
    }
    net.set_fault_plan(spec.faults);
    const auto fingerprint_start = std::chrono::steady_clock::now();
    const std::uint64_t net_fp = net.fingerprint();
    add_wall_ns(observer, "campaign.fingerprint_ns", fingerprint_start);
    const std::string& code = site.code;
    StageContext ctx{net, spec, control, cache, run_pool, budget, code, result.records,
                     record_docs, nullptr};

    // ---- Stage 1: CenTrace over (endpoint × domain × protocol). ----
    const std::vector<std::string> http_domains =
        scenario::stride_sample(site.http_domains, spec.max_domains);
    const std::vector<std::string> https_domains =
        scenario::stride_sample(site.https_domains, spec.max_domains);

    // Degradation plan: escalate unlocalized blocked traces to tomography
    // from the scenario's other clients. The plan fingerprint joins the
    // cache key only when enabled so existing caches stay valid.
    trace::DegradationPlan degrade_plan;
    degrade_plan.tomography = spec.trace_tomography;
    degrade_plan.vantages = site.vantages;
    const trace::DegradationPlan* plan =
        spec.trace_tomography ? &degrade_plan : nullptr;
    const std::uint64_t plan_fp =
        spec.trace_tomography ? degrade_plan.fingerprint() : 0;

    std::vector<dag::TraceTask> trace_tasks;
    if (spec.stages.trace) {
      trace_tasks = dag::trace_tasks(scenario::stride_sample(site.endpoints, spec.max_endpoints),
                                     {{http_domains, trace::ProbeProtocol::kHttp},
                                      {https_domains, trace::ProbeProtocol::kHttps}});
    }
    auto trace_opts = [&](const dag::TraceTask& t) {
      trace::CenTraceOptions opts = spec.trace;
      opts.protocol = t.protocol;
      return opts;
    };
    // A task's id is "<site>:<stage>:<subject>"; its cache key covers the
    // network, the campaign seed, the fault plan, the id and its options.
    auto add_task = [&](StageTasks& tasks, std::string_view stage, const std::string& subject,
                        std::uint64_t identity, std::uint64_t options_fp) {
      std::string id = code + ":" + std::string(stage) + ":" + subject;
      tasks.cache_keys.push_back(
          task_cache_key(net_fp, spec.seed, fault_fp, stage, id, options_fp));
      tasks.ids.push_back(std::move(id));
      tasks.identity.push_back(identity);
    };
    StageTasks trace_stage;
    for (const dag::TraceTask& t : trace_tasks) {
      add_task(trace_stage, "trace",
               t.endpoint.str() + ":" + *t.domain + ":" +
                   std::string(trace::probe_protocol_name(t.protocol)),
               t.identity, trace_opts(t).fingerprint() ^ plan_fp);
    }
    const std::optional<std::vector<trace::CenTraceReport>> traced = run_stage(
        ctx, result.trace, "trace", trace_stage, salts::kTraceStage,
        report::trace_report_from_json, [&](sim::Network& worker, std::size_t i) {
          const dag::TraceTask& t = trace_tasks[i];
          trace::TraceRunOptions ropts;
          ropts.client = site.client;
          ropts.endpoint = t.endpoint;
          ropts.test_domain = *t.domain;
          ropts.control_domain = site.control_domain;
          ropts.trace = trace_opts(t);
          ropts.degradation = plan;
          return report::to_json(trace::run(worker, ropts));
        });
    if (!traced) return finish();  // budget exhausted: incomplete, resume via the cache
    // Every downstream decision runs off DECODED records — identical
    // whether the record was fresh or cached.
    const std::vector<trace::CenTraceReport>& traces = *traced;

    // ---- Stage 2: CenProbe every distinct in-path blocking-hop IP. ----
    std::vector<dag::DeviceTask> devices;
    if (spec.stages.probe) devices = dag::device_tasks(traces);
    StageTasks probe_stage;
    for (const dag::DeviceTask& t : devices) {
      add_task(probe_stage, "probe", t.ip.str(), t.identity, 0);
    }
    std::optional<std::vector<probe::DeviceProbeReport>> probed = run_stage(
        ctx, result.probe, "probe", probe_stage, salts::kProbeStage,
        report::probe_report_from_json, [&](sim::Network& worker, std::size_t i) {
          return report::to_json(probe::run(worker, probe::ProbeRunOptions{.ip = devices[i].ip}));
        });
    if (!probed) return finish();
    std::map<std::uint32_t, probe::DeviceProbeReport> device_probes;
    for (std::size_t i = 0; i < probed->size(); ++i) {
      device_probes.emplace(devices[i].ip.value(), std::move((*probed)[i]));
    }

    // ---- Stage 3: CenFuzz and CenAmbig blocked endpoints, each through
    // its representative trace. Every fuzz task shares the stage's probe
    // tables; CenAmbig fingerprints reassembly ambiguities for deployments
    // whose banners are dark. ----
    const dag::Representatives representatives = dag::representatives(trace_tasks, traces);
    result.blocked_endpoints += representatives.size();
    std::vector<dag::EndpointTask> fuzz_tasks, ambig_tasks;
    if (spec.stages.fuzz) fuzz_tasks = dag::fuzz_tasks(representatives, spec.fuzz_max_endpoints);
    if (spec.stages.ambig) {
      ambig_tasks = dag::ambig_tasks(representatives, spec.ambig_max_endpoints);
    }
    auto endpoint_stage = [&](std::string_view stage, const std::vector<dag::EndpointTask>& tasks,
                              std::uint64_t options_fp) {
      StageTasks out;
      for (const dag::EndpointTask& t : tasks) {
        add_task(out, stage, t.endpoint.str() + ":" + t.trace->test_domain, t.identity,
                 options_fp);
      }
      return out;
    };

    std::vector<std::string> fuzz_domains{site.control_domain};
    for (const dag::EndpointTask& t : fuzz_tasks) fuzz_domains.push_back(t.trace->test_domain);
    ProbeTables probe_tables(fuzz_domains);
    std::optional<std::vector<fuzz::CenFuzzReport>> fuzzed = run_stage(
        ctx, result.fuzz, "fuzz", endpoint_stage("fuzz", fuzz_tasks, spec.fuzz.fingerprint()),
        salts::kFuzzStage, report::fuzz_report_from_json,
        [&](sim::Network& worker, std::size_t i) {
          const dag::EndpointTask& t = fuzz_tasks[i];
          fuzz::FuzzRunOptions ropts;
          ropts.client = site.client;
          ropts.endpoint = t.endpoint;
          ropts.test_domain = t.trace->test_domain;
          ropts.control_domain = site.control_domain;
          ropts.fuzz = spec.fuzz;
          ropts.test_probes = probe_tables.get(t.trace->test_domain);
          ropts.control_probes = probe_tables.get(site.control_domain);
          return report::to_json(fuzz::run(worker, ropts));
        });
    if (!fuzzed) return finish();

    std::optional<std::vector<ambig::AmbigReport>> ambiguities = run_stage(
        ctx, result.ambig, "ambig",
        endpoint_stage("ambig", ambig_tasks, spec.ambig.fingerprint()), salts::kAmbigStage,
        report::ambig_report_from_json, [&](sim::Network& worker, std::size_t i) {
          const dag::EndpointTask& t = ambig_tasks[i];
          ambig::AmbigRunOptions ropts;
          ropts.client = site.client;
          ropts.endpoint = t.endpoint;
          ropts.test_domain = t.trace->test_domain;
          ropts.control_domain = site.control_domain;
          ropts.ambig = spec.ambig;
          return report::to_json(ambig::run(worker, ropts));
        });
    if (!ambiguities) return finish();

    // ---- Stage 4: bundle one measurement per blocked endpoint. ----
    dag::bundle(code, representatives, device_probes, fuzz_tasks, std::move(*fuzzed),
                ambig_tasks, std::move(*ambiguities), result.measurements);

    // Executor overhead + replica path-cache stats for this country's
    // pool (if one was created) — wall domain, --perf-report only.
    if (observer != nullptr && ctx.exec != nullptr) {
      scenario::export_exec_perf(*observer, *ctx.exec);
    }
  }

  // ---- Stage 5: feature extraction + DBSCAN, exactly the cencluster
  // convention (impute → standardize → k-distance ε with k = 4). ----
  if (spec.stages.cluster && !result.measurements.empty()) {
    ml::FeatureMatrix fm = ml::extract_features(result.measurements);
    ml::impute_median(fm);
    ml::standardize(fm);
    result.row_ids = fm.row_ids;
    if (fm.n_rows() > 4) {
      const double eps = ml::estimate_epsilon(fm.rows, 4);
      ml::DbscanResult db = ml::dbscan(fm.rows, eps, 4);
      result.cluster_labels = std::move(db.labels);
      result.n_clusters = db.n_clusters;
    } else {
      // Too few rows for the k = 4 heuristic: everything is noise.
      result.cluster_labels.assign(fm.n_rows(), ml::kNoise);
    }
    for (int label : result.cluster_labels) {
      if (label == ml::kNoise) ++result.noise_rows;
    }
  }

  result.complete = true;

  if (observer != nullptr) {
    obs::Registry& m = observer->metrics();
    // Record-derived metrics are functions of the spec alone — sim
    // domain, identical across thread counts, cache states and resumes.
    m.counter("campaign.trace_tasks").inc(result.trace.tasks);
    m.counter("campaign.probe_tasks").inc(result.probe.tasks);
    m.counter("campaign.fuzz_tasks").inc(result.fuzz.tasks);
    m.counter("campaign.ambig_tasks").inc(result.ambig.tasks);
    m.counter("campaign.blocked_endpoints").inc(result.blocked_endpoints);
    m.counter("campaign.measurements").inc(result.measurements.size());
    m.gauge("campaign.clusters").set_max(result.n_clusters);
    // Execution bookkeeping varies with the cache and the batch budget —
    // wall domain.
    m.counter("campaign.tasks_executed", obs::Domain::kWall).inc(result.tool_tasks_executed());
    m.counter("campaign.cache_hits", obs::Domain::kWall).inc(result.cache_hits());
    m.counter("campaign.batches_executed", obs::Domain::kWall).inc(result.batches_executed());
  }
  return finish();
}

std::string CampaignResult::to_jsonl() const {
  std::string out;
  for (const CampaignRecord& r : records) {
    JsonWriter w;
    w.begin_object();
    w.key("stage").value(r.stage);
    w.key("task").value(r.task_id);
    w.key("country").value(r.country);
    w.key("result").raw_value(r.json);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

std::string CampaignResult::summary_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("campaign").value(name);
  w.key("complete").value(complete);
  w.key("countries").begin_array();
  for (const std::string& c : countries) w.value(c);
  w.end_array();
  w.key("trace_tasks").value(static_cast<std::uint64_t>(trace.tasks));
  w.key("probe_tasks").value(static_cast<std::uint64_t>(probe.tasks));
  w.key("fuzz_tasks").value(static_cast<std::uint64_t>(fuzz.tasks));
  w.key("ambig_tasks").value(static_cast<std::uint64_t>(ambig.tasks));
  w.key("blocked_endpoints").value(static_cast<std::uint64_t>(blocked_endpoints));
  w.key("measurements").value(static_cast<std::uint64_t>(measurements.size()));
  w.key("clusters").value(n_clusters);
  w.key("noise_rows").value(static_cast<std::uint64_t>(noise_rows));
  w.key("labels").begin_array();
  for (std::size_t i = 0; i < row_ids.size(); ++i) {
    w.begin_object();
    w.key("endpoint").value(row_ids[i]);
    w.key("cluster").value(i < cluster_labels.size() ? cluster_labels[i] : ml::kNoise);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

}  // namespace cen::campaign

#include "replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>

#include "campaign/cache.hpp"
#include "core/strings.hpp"
#include "microbench.hpp"
#include "ml/dbscan.hpp"
#include "ml/features.hpp"
#include "report/from_json.hpp"
#include "report/json_report.hpp"
#include "scenario/country.hpp"
#include "scenario/executor.hpp"
#include "worldgen/generate.hpp"

namespace perfbench {

using namespace cen;

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

namespace {

/// The highest percentile with at least ten samples beyond it, capped at
/// 0.99 and floored at the median (reported as ".p99").
double tail_rank(std::size_t samples) {
  if (samples == 0) return 0.5;
  return std::clamp(1.0 - 10.0 / static_cast<double>(samples), 0.5, 0.99);
}

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = the root has no parent
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int worker = 0;  ///< 0 = the replaying thread, 1..kWorkers = executor workers
};

/// In-memory span recorder. Each lane (the replaying thread, then one per
/// executor worker) appends only to its own vector, so recording takes no
/// lock; only a worker's first span in a pool looks its lane up.
class SpanLog {
 public:
  SpanLog() : lanes_(kWorkers + 1), origin_(Clock::now()) {}

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  std::uint32_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }
  void record(const Span& s) { lanes_[static_cast<std::size_t>(s.worker)].push_back(s); }

  /// A new executor brings new threads: restart the lane assignment.
  /// Call only while no executor is running.
  void new_pool() {
    std::lock_guard<std::mutex> lock(mu_);
    ++pool_generation_;
    lanes_assigned_ = 0;
  }

  /// Lane of the calling executor worker, assigned on its first task.
  int worker_lane() {
    thread_local const SpanLog* cached_log = nullptr;
    thread_local std::uint64_t cached_pool = 0;
    thread_local int cached_lane = 0;
    std::lock_guard<std::mutex> lock(mu_);
    if (cached_log != this || cached_pool != pool_generation_) {
      if (lanes_assigned_ == kWorkers) {
        throw std::logic_error("more executor threads than workers");
      }
      cached_log = this;
      cached_pool = pool_generation_;
      cached_lane = ++lanes_assigned_;
    }
    return cached_lane;
  }

  std::vector<Span> spans() const {
    std::vector<Span> all;
    for (const auto& lane : lanes_) all.insert(all.end(), lane.begin(), lane.end());
    std::sort(all.begin(), all.end(),
              [](const Span& a, const Span& b) { return a.id < b.id; });
    return all;
  }

 private:
  std::vector<std::vector<Span>> lanes_;
  Clock::time_point origin_;
  std::atomic<std::uint32_t> next_id_{0};
  std::mutex mu_;  // guards pool_generation_ and lanes_assigned_
  std::uint64_t pool_generation_ = 1;
  int lanes_assigned_ = 0;
};

/// One span: opened on construction, recorded on destruction.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint32_t parent, int worker = 0) : log_(log) {
    span_.id = log.next_id();
    span_.parent = parent;
    span_.name = name;
    span_.worker = worker;
    span_.start_ns = log.now();
  }
  ~Scope() {
    span_.end_ns = log_.now();
    log_.record(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

constexpr const char* kStages[] = {"trace", "probe", "fuzz", "ambig"};

/// A task id split on ':' — "<site>:<stage>:<ip>[:<domain>[:<protocol>]]".
struct TaskSubject {
  net::Ipv4Address ip;
  std::string domain;
  std::string protocol;
};

TaskSubject parse_task(const std::string& id) {
  const std::vector<std::string> parts = split(id, ':');
  if (parts.size() < 3) throw std::runtime_error("malformed task id '" + id + "'");
  TaskSubject t;
  const auto ip = net::Ipv4Address::parse(parts[2]);
  if (!ip) throw std::runtime_error("bad endpoint in task id '" + id + "'");
  t.ip = *ip;
  if (parts.size() > 3) t.domain = parts[3];
  if (parts.size() > 4) t.protocol = parts[4];
  return t;
}

/// Executes one task on a replica and returns its encoded report; records
/// the tool and encode spans under `parent` on `lane`.
using Execute =
    std::function<std::string(sim::Network&, std::size_t, std::uint32_t parent, int lane)>;

/// Replay state shared by one site's stages.
struct SiteReplay {
  SpanLog& log;
  const campaign::CampaignSpec& spec;
  campaign::ResultCache& cache;
  sim::Network& net;
  std::uint32_t site_span = 0;
  std::uint64_t net_fp = 0;
  std::uint64_t fault_fp = 0;
  std::unique_ptr<scenario::ParallelExecutor> exec;
  std::size_t finds = 0;
  std::size_t hits = 0;
  std::size_t flushes = 0;

  SiteReplay(SpanLog& log_, const campaign::CampaignSpec& spec_, campaign::ResultCache& cache_,
             sim::Network& net_, std::uint32_t site_span_)
      : log(log_), spec(spec_), cache(cache_), net(net_), site_span(site_span_) {}

  /// The campaign's batch loop for one stage, with the replay's own seeds.
  std::vector<std::string> run_stage(const char* stage,
                                     const std::vector<const campaign::CampaignRecord*>& tasks,
                                     const std::vector<std::uint64_t>& options_fps,
                                     const Execute& execute) {
    const std::size_t n = tasks.size();
    std::vector<std::string> docs(n);
    if (n == 0) return docs;
    std::vector<std::string> keys(n);
    std::vector<std::uint64_t> identity(n);
    for (std::size_t i = 0; i < n; ++i) {
      identity[i] = scenario::domain_hash(tasks[i]->task_id);
      Scope s(log, "cache.key", site_span);
      keys[i] = campaign::task_cache_key(net_fp, spec.seed, fault_fp, stage,
                                         tasks[i]->task_id, options_fps[i]);
    }
    std::vector<std::uint64_t> seeds;
    {
      Scope s(log, "exec.derive_seeds", site_span);
      seeds = scenario::derive_task_seeds(
          net.seed(), scenario::domain_hash(std::string("perfbench:") + stage), identity);
    }

    const auto batch = static_cast<std::size_t>(spec.batch_size);
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t end = std::min(start + batch, n);
      std::vector<std::size_t> missing;
      for (std::size_t i = start; i < end; ++i) {
        const std::string* hit = nullptr;
        {
          Scope s(log, "cache.find", site_span);
          hit = cache.find(keys[i]);
        }
        ++finds;
        bool valid = false;
        if (hit != nullptr) {
          Scope s(log, "report.decode", site_span);
          valid = decodes(stage, *hit);
        }
        if (valid) {
          docs[i] = *hit;
          ++hits;
        } else {
          missing.push_back(i);
        }
      }
      if (missing.empty()) continue;

      if (exec == nullptr) {
        Scope s(log, "netsim.clone", site_span);
        exec = std::make_unique<scenario::ParallelExecutor>(net, kWorkers);
        log.new_pool();
      }
      std::vector<std::uint64_t> sub_seeds;
      for (std::size_t i : missing) sub_seeds.push_back(seeds[i]);
      std::vector<std::string> fresh(missing.size());
      {
        Scope run(log, "exec.run", site_span);
        const std::uint32_t run_id = run.id();
        exec->run(sub_seeds, [&](sim::Network& replica, std::size_t j) {
          const int lane = log.worker_lane();
          Scope task(log, "exec.task", run_id, lane);
          fresh[j] = execute(replica, missing[j], task.id(), lane);
          // The executor resets each replica before its next task; timing
          // the rollback here, while the replica is dirty, gives the cost
          // the executor pays per task.
          Scope reset(log, "netsim.reset_epoch", task.id(), lane);
          replica.reset_epoch(sub_seeds[j]);
        });
      }
      for (std::size_t j = 0; j < missing.size(); ++j) docs[missing[j]] = std::move(fresh[j]);
      for (std::size_t i : missing) {
        Scope s(log, "cache.put", site_span);
        cache.put(keys[i], stage, tasks[i]->task_id, docs[i]);
      }
      Scope s(log, "cache.flush", site_span);
      cache.flush();
      ++flushes;
    }
    return docs;
  }
};

/// Sum of a span's duration covered by its children (interval union).
std::int64_t covered(const Span& parent, std::vector<std::pair<std::int64_t, std::int64_t>> kids) {
  std::sort(kids.begin(), kids.end());
  std::int64_t total = 0;
  std::int64_t cur_start = 0;
  std::int64_t cur_end = -1;
  for (auto [s, e] : kids) {
    s = std::max(s, parent.start_ns);
    e = std::min(e, parent.end_ns);
    if (e <= s) continue;
    if (s > cur_end) {
      if (cur_end > cur_start) total += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) total += cur_end - cur_start;
  return total;
}

std::string layer_of(const char* name) {
  const std::string_view n(name);
  return std::string(n.substr(0, n.find('.')));
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, \"parent\": %u, "
                 "\"start_ns\": %lld, \"end_ns\": %lld}}%s\n",
                 s.name, layer_of(s.name).c_str(), s.worker, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write spans to " + path);
}

/// Durations (ms) of every span with this name, sorted.
std::vector<double> durations_ms(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  std::sort(out.begin(), out.end());
  return out;
}

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

scenario::Country country_for(const campaign::CampaignSpec& spec, const std::string& code) {
  for (scenario::Country c : spec.effective_countries()) {
    if (scenario::country_code(c) == code) return c;
  }
  throw std::runtime_error("record names unknown site '" + code + "'");
}

/// Build one site with spans around the builders. A world site is built
/// as make_world does it (generate, then instantiate) so the two phases
/// get their own spans.
Site build_site(SpanLog& log, std::uint32_t parent, const campaign::CampaignSpec& spec,
                const std::string& code) {
  Scope build(log, "scenario.build", parent);
  if (spec.world) {
    worldgen::World world = [&] {
      Scope s(log, "worldgen.generate", build.id());
      return worldgen::generate(*spec.world, spec.seed);
    }();
    Scope s(log, "worldgen.instantiate", build.id());
    worldgen::GeneratedScenario gen = worldgen::instantiate(world);
    return {spec.world->name, std::move(gen.network), gen.client,
            std::move(gen.control_domain)};
  }
  scenario::CountryScenario sc =
      scenario::make_country(country_for(spec, code), spec.scale, spec.seed);
  return {code, std::move(sc.network), sc.remote_client, std::move(sc.control_domain)};
}

}  // namespace

Metrics traced_replay(const Workload& w, const campaign::CampaignResult& timed,
                      const std::string& cache_path, const std::string& spans_path) {
  const campaign::CampaignSpec& spec = w.spec;
  if (spec.trace_tomography || (spec.evolution && spec.evolution_epoch > 0)) {
    throw std::logic_error("the replay covers neither tomography nor evolution");
  }

  // Group the timed run's records by site (records are in site order).
  std::vector<std::string> site_codes;
  std::map<std::string, std::map<std::string, std::vector<const campaign::CampaignRecord*>>>
      by_site;
  for (const campaign::CampaignRecord& r : timed.records) {
    if (by_site.find(r.country) == by_site.end()) site_codes.push_back(r.country);
    by_site[r.country][r.stage].push_back(&r);
  }

  SpanLog log;
  std::vector<Site> kept;
  std::vector<MicroSubjects> subjects;
  std::uint64_t clone_ns = 0;
  std::uint64_t path_hits = 0;
  std::uint64_t path_misses = 0;
  std::size_t finds = 0, hits = 0, flushes = 0;
  std::atomic<std::uint64_t> encode_bytes{0};
  std::size_t loss_recovered = 0, degraded = 0, trace_reports = 0;
  std::uint32_t root_id = 0;

  {
    Scope root(log, "bench.replay", 0);
    root_id = root.id();
    campaign::ResultCache cache(cache_path);
    {
      Scope s(log, "cache.load", root.id());
      cache.load();
    }
    std::vector<ml::EndpointMeasurement> measurements;

    for (const std::string& code : site_codes) {
      Scope site_span(log, "bench.site", root.id());
      Site site = build_site(log, site_span.id(), spec, code);
      sim::Network& net = *site.network;
      SiteReplay rp(log, spec, cache, net, site_span.id());
      {
        Scope s(log, "netsim.set_fault_plan", site_span.id());
        net.set_fault_plan(spec.faults);
      }
      {
        Scope s(log, "netsim.fingerprint", site_span.id());
        rp.net_fp = net.fingerprint();
      }
      rp.fault_fp = spec.faults.fingerprint();

      auto& stage_tasks = by_site[code];
      std::map<std::string, std::vector<TaskSubject>> subject;
      for (const char* stage : kStages) {
        for (const campaign::CampaignRecord* r : stage_tasks[stage]) {
          subject[stage].push_back(parse_task(r->task_id));
        }
      }

      trace::CenTraceOptions http_opts = spec.trace;
      http_opts.protocol = trace::ProbeProtocol::kHttp;
      trace::CenTraceOptions https_opts = spec.trace;
      https_opts.protocol = trace::ProbeProtocol::kHttps;
      const std::string https_name(trace::probe_protocol_name(trace::ProbeProtocol::kHttps));

      // ---- trace ----
      const auto& trace_subj = subject["trace"];
      std::vector<std::uint64_t> trace_fps;
      for (const TaskSubject& t : trace_subj) {
        trace_fps.push_back((t.protocol == https_name ? https_opts : http_opts).fingerprint());
      }
      std::vector<std::string> trace_docs = rp.run_stage(
          "trace", stage_tasks["trace"], trace_fps,
          [&](sim::Network& replica, std::size_t i, std::uint32_t parent, int lane) {
            const TaskSubject& t = trace_subj[i];
            trace::TraceRunOptions o;
            o.client = site.client;
            o.endpoint = t.ip;
            o.test_domain = t.domain;
            o.control_domain = site.control_domain;
            o.trace = t.protocol == https_name ? https_opts : http_opts;
            trace::CenTraceReport rep;
            {
              Scope s(log, "centrace.run", parent, lane);
              rep = trace::run(replica, o);
            }
            Scope s(log, "report.encode", parent, lane);
            std::string doc = report::to_json(rep);
            encode_bytes.fetch_add(doc.size(), std::memory_order_relaxed);
            return doc;
          });

      // ---- probe ----
      const auto& probe_subj = subject["probe"];
      std::vector<std::string> probe_docs = rp.run_stage(
          "probe", stage_tasks["probe"], std::vector<std::uint64_t>(probe_subj.size(), 0),
          [&](sim::Network& replica, std::size_t i, std::uint32_t parent, int lane) {
            probe::ProbeRunOptions o;
            o.ip = probe_subj[i].ip;
            probe::DeviceProbeReport rep;
            {
              Scope s(log, "cenprobe.run", parent, lane);
              rep = probe::run(replica, o);
            }
            Scope s(log, "report.encode", parent, lane);
            std::string doc = report::to_json(rep);
            encode_bytes.fetch_add(doc.size(), std::memory_order_relaxed);
            return doc;
          });

      // ---- fuzz ----
      const auto& fuzz_subj = subject["fuzz"];
      std::vector<std::string> fuzz_docs = rp.run_stage(
          "fuzz", stage_tasks["fuzz"],
          std::vector<std::uint64_t>(fuzz_subj.size(), spec.fuzz.fingerprint()),
          [&](sim::Network& replica, std::size_t i, std::uint32_t parent, int lane) {
            fuzz::FuzzRunOptions o;
            o.client = site.client;
            o.endpoint = fuzz_subj[i].ip;
            o.test_domain = fuzz_subj[i].domain;
            o.control_domain = site.control_domain;
            o.fuzz = spec.fuzz;
            fuzz::CenFuzzReport rep;
            {
              Scope s(log, "cenfuzz.run", parent, lane);
              rep = fuzz::run(replica, o);
            }
            Scope s(log, "report.encode", parent, lane);
            std::string doc = report::to_json(rep);
            encode_bytes.fetch_add(doc.size(), std::memory_order_relaxed);
            return doc;
          });

      // ---- ambig ----
      const auto& ambig_subj = subject["ambig"];
      std::vector<std::string> ambig_docs = rp.run_stage(
          "ambig", stage_tasks["ambig"],
          std::vector<std::uint64_t>(ambig_subj.size(), spec.ambig.fingerprint()),
          [&](sim::Network& replica, std::size_t i, std::uint32_t parent, int lane) {
            ambig::AmbigRunOptions o;
            o.client = site.client;
            o.endpoint = ambig_subj[i].ip;
            o.test_domain = ambig_subj[i].domain;
            o.control_domain = site.control_domain;
            o.ambig = spec.ambig;
            ambig::AmbigReport rep;
            {
              Scope s(log, "cenambig.run", parent, lane);
              rep = ambig::run(replica, o);
            }
            Scope s(log, "report.encode", parent, lane);
            std::string doc = report::to_json(rep);
            encode_bytes.fetch_add(doc.size(), std::memory_order_relaxed);
            return doc;
          });

      // Downstream stages consume decoded records, as the campaign does.
      std::vector<trace::CenTraceReport> traces;
      for (const std::string& doc : trace_docs) {
        Scope s(log, "report.decode", site_span.id());
        traces.push_back(report::trace_report_from_json(doc).value());
      }
      std::map<std::uint32_t, probe::DeviceProbeReport> probes;
      for (std::size_t i = 0; i < probe_docs.size(); ++i) {
        Scope s(log, "report.decode", site_span.id());
        probes.emplace(probe_subj[i].ip.value(),
                       report::probe_report_from_json(probe_docs[i]).value());
      }
      std::map<std::uint32_t, fuzz::CenFuzzReport> fuzzes;
      for (std::size_t i = 0; i < fuzz_docs.size(); ++i) {
        Scope s(log, "report.decode", site_span.id());
        fuzzes.emplace(fuzz_subj[i].ip.value(),
                       report::fuzz_report_from_json(fuzz_docs[i]).value());
      }
      std::map<std::uint32_t, ambig::AmbigReport> ambigs;
      for (std::size_t i = 0; i < ambig_docs.size(); ++i) {
        Scope s(log, "report.decode", site_span.id());
        ambigs.emplace(ambig_subj[i].ip.value(),
                       report::ambig_report_from_json(ambig_docs[i]).value());
      }

      // One measurement per blocked endpoint (its first blocked trace).
      std::map<std::uint32_t, const trace::CenTraceReport*> blocked;
      for (const trace::CenTraceReport& r : traces) {
        ++trace_reports;
        loss_recovered += static_cast<std::size_t>(r.confidence.loss_recovered_probes);
        if (r.degradation.mode != trace::DegradationMode::kFull) ++degraded;
        if (r.blocked) blocked.emplace(r.endpoint.value(), &r);
      }
      for (const auto& [ep, rep] : blocked) {
        ml::EndpointMeasurement m;
        m.endpoint_id = net::Ipv4Address(ep).str();
        m.country = code;
        m.trace = *rep;
        if (auto it = fuzzes.find(ep); it != fuzzes.end()) m.fuzz = it->second;
        if (auto it = ambigs.find(ep); it != ambigs.end()) m.ambig = it->second;
        if (rep->blocking_hop_ip) {
          if (auto it = probes.find(rep->blocking_hop_ip->value()); it != probes.end()) {
            m.banner = it->second;
          }
        }
        measurements.push_back(std::move(m));
      }

      if (rp.exec != nullptr) {
        clone_ns += rp.exec->perf().clone_ns.load(std::memory_order_relaxed);
        path_hits += rp.exec->path_cache_hits();
        path_misses += rp.exec->path_cache_misses();
      }
      finds += rp.finds;
      hits += rp.hits;
      flushes += rp.flushes;

      MicroSubjects ms;
      for (const TaskSubject& t : trace_subj) {
        if (std::find(ms.endpoints.begin(), ms.endpoints.end(), t.ip) == ms.endpoints.end()) {
          ms.endpoints.push_back(t.ip);
        }
        auto& domains = t.protocol == https_name ? ms.https_domains : ms.http_domains;
        if (std::find(domains.begin(), domains.end(), t.domain) == domains.end()) {
          domains.push_back(t.domain);
        }
      }
      subjects.push_back(std::move(ms));
      kept.push_back(std::move(site));
    }

    // Clustering, exactly the campaign's convention.
    if (!measurements.empty()) {
      ml::FeatureMatrix fm;
      {
        Scope s(log, "ml.features", root.id());
        fm = ml::extract_features(measurements);
        ml::impute_median(fm);
        ml::standardize(fm);
      }
      if (fm.n_rows() > 4) {
        double eps = 0.0;
        {
          Scope s(log, "ml.epsilon", root.id());
          eps = ml::estimate_epsilon(fm.rows, 4);
        }
        Scope s(log, "ml.dbscan", root.id());
        ml::DbscanResult db = ml::dbscan(fm.rows, eps, 4);
        if (db.labels.size() != fm.n_rows()) throw std::runtime_error("dbscan lost rows");
      }
    }
  }
  for (std::size_t i = 0; i < kept.size(); ++i) subjects[i].site = &kept[i];

  const std::vector<Span> spans = log.spans();
  write_spans(spans, spans_path);

  // ---- per-layer metrics from the spans ----
  Metrics out;
  auto add = [&](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  auto busy = [&](std::string_view name) { return sum(durations_ms(spans, name)); };

  add("scenario.build_ms", busy("scenario.build"), "ms");
  add("worldgen.generate_ms", busy("worldgen.generate"), "ms");

  add("netsim.clone_ms", clone_ns / 1e6, "ms");
  add("netsim.pathcache_hit_frac",
      ratio(static_cast<double>(path_hits), static_cast<double>(path_hits + path_misses)),
      "frac");
  add("netsim.pathcache_misses", static_cast<double>(path_misses), "count");
  add("netsim.fingerprint_ms", busy("netsim.fingerprint"), "ms");
  const std::vector<double> resets = durations_ms(spans, "netsim.reset_epoch");
  add("netsim.reset_epoch.busy_ms", sum(resets), "ms");
  add("netsim.reset_epoch_us.p50", quantile(resets, 0.5) * 1e3, "us");
  add("netsim.reset_epoch_us.p99", quantile(resets, tail_rank(resets.size())) * 1e3, "us");

  const std::vector<double> runs = durations_ms(spans, "exec.run");
  const std::vector<double> tasks = durations_ms(spans, "exec.task");
  const double run_wall = sum(runs);
  const double task_busy = sum(tasks);
  add("exec.dispatches", static_cast<double>(runs.size()), "count");
  add("exec.tasks_per_dispatch",
      ratio(static_cast<double>(tasks.size()), static_cast<double>(runs.size())), "count");
  add("exec.parallelism", ratio(task_busy, run_wall), "ratio");
  const double idle = std::max(0.0, kWorkers * run_wall - task_busy);
  add("exec.idle_ms", idle, "ms");

  for (const char* tool : {"centrace", "cenprobe", "cenfuzz", "cenambig"}) {
    const std::vector<double> d = durations_ms(spans, std::string(tool) + ".run");
    add(std::string(tool) + ".calls", static_cast<double>(d.size()), "count");
    add(std::string(tool) + ".busy_ms", sum(d), "ms");
    add(std::string(tool) + ".run_ms.p50", quantile(d, 0.5), "ms");
    add(std::string(tool) + ".run_ms.p99", quantile(d, tail_rank(d.size())), "ms");
    if (std::string_view(tool) == "centrace") {
      add("centrace.loss_recovered_probes", static_cast<double>(loss_recovered), "count");
      add("centrace.degraded_frac",
          ratio(static_cast<double>(degraded), static_cast<double>(trace_reports)), "frac");
    }
  }

  add("report.encode.busy_ms", busy("report.encode"), "ms");
  add("report.encode_bytes", static_cast<double>(encode_bytes.load()), "bytes");
  const std::vector<double> decodes_ms = durations_ms(spans, "report.decode");
  add("report.decode.busy_ms", sum(decodes_ms), "ms");
  add("report.decode_us.p50", quantile(decodes_ms, 0.5) * 1e3, "us");

  add("cache.load_ms", busy("cache.load"), "ms");
  add("cache.find.busy_ms", busy("cache.find"), "ms");
  add("cache.hit_frac", ratio(static_cast<double>(hits), static_cast<double>(finds)), "frac");
  add("cache.key.busy_ms", busy("cache.key"), "ms");
  add("cache.put.busy_ms", busy("cache.put"), "ms");
  add("cache.flush.busy_ms", busy("cache.flush"), "ms");
  add("cache.flushes", static_cast<double>(flushes), "count");

  add("ml.features_ms", busy("ml.features"), "ms");
  add("ml.epsilon_ms", busy("ml.epsilon"), "ms");
  add("ml.dbscan_ms", busy("ml.dbscan"), "ms");

  // Self time per layer: a span's duration minus the part its children
  // cover. exec.run's own self time is the executor's dispatch gap, which
  // exec.idle_ms already counts on the worker lanes.
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, double> self_ms;
  for (const char* layer : {"scenario", "worldgen", "netsim", "exec", "centrace", "cenprobe",
                            "cenfuzz", "cenambig", "report", "cache", "ml", "bench"}) {
    self_ms[layer] = 0.0;
  }
  double wall_ms = 0.0;
  double layer_self = 0.0;
  for (const Span& s : spans) {
    const double self =
        (s.end_ns - s.start_ns - covered(s, children[s.id])) / 1e6;
    if (s.id == root_id) wall_ms = (s.end_ns - s.start_ns) / 1e6;
    if (std::string_view(s.name) == "exec.run") continue;
    self_ms[layer_of(s.name)] += self;
    if (layer_of(s.name) != "bench") layer_self += self;
  }
  for (const auto& [layer, ms] : self_ms) add(layer + ".self_ms", ms, "ms");

  // Lane time: the replaying thread's wall time, where every exec.run
  // interval counts once per worker (the replaying thread waits there).
  const double lane_ms = wall_ms + (kWorkers - 1) * run_wall;
  add("tracing.wall_ms", wall_ms, "ms");
  add("tracing.coverage_frac", ratio(layer_self + idle, lane_ms), "frac");
  add("tracing.spans", static_cast<double>(spans.size()), "count");

  micro_metrics(subjects, out);
  return out;
}

}  // namespace perfbench

#include "scenario/executor.hpp"

#include <algorithm>
#include <chrono>

#include "obs/observer.hpp"

namespace cen::scenario {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Chunks per worker a dispatch is cut into (when the chunk cap allows),
/// so a worker that drew slow tasks is balanced by the others.
constexpr std::size_t kChunksPerWorker = 4;
}  // namespace

std::size_t dispatch_chunk(std::size_t tasks, int workers) {
  const std::size_t slots = kChunksPerWorker * static_cast<std::size_t>(std::max(workers, 1));
  return std::clamp<std::size_t>((tasks + slots - 1) / slots, 1, kMaxDispatchChunk);
}

int resolve_threads(int requested) {
  return requested >= 0 ? requested : ThreadPool::hardware_threads();
}

std::uint64_t domain_hash(std::string_view domain) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  for (char c : domain) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV-1a prime
  }
  return h;
}

std::uint64_t task_key_hashed(std::uint32_t endpoint, std::uint64_t domain_hash,
                              std::uint64_t tag) {
  domain_hash ^= mix64((static_cast<std::uint64_t>(endpoint) << 16) ^ tag);
  return mix64(domain_hash);
}

std::uint64_t task_key(std::uint32_t endpoint, std::string_view domain,
                       std::uint64_t tag) {
  return task_key_hashed(endpoint, domain_hash(domain), tag);
}

std::vector<std::uint64_t> derive_task_seeds(std::uint64_t network_seed,
                                             std::uint64_t stage_salt,
                                             const std::vector<std::uint64_t>& keys) {
  Rng base(mix64(network_seed ^ stage_salt));
  std::vector<std::uint64_t> seeds;
  seeds.reserve(keys.size());
  for (std::uint64_t key : keys) {
    Rng sub = base.fork();
    seeds.push_back(sub.next() ^ key);
  }
  return seeds;
}

ParallelExecutor::ParallelExecutor(sim::Network& prototype, int threads)
    : prototype_(prototype) {
  const int workers = resolve_threads(threads);
  if (workers == 0) return;
  const std::uint64_t t0 = now_ns();
  replicas_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    replicas_.push_back(prototype.clone());
  }
  perf_.clone_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  pool_.emplace(workers);
}

void ParallelExecutor::set_perf_tracking(bool enabled) {
  perf_tracking_ = enabled;
  if (pool_) pool_->set_stats(enabled ? &perf_.pool : nullptr);
}

std::uint64_t ParallelExecutor::sum_topologies(
    std::uint64_t (sim::Topology::*counter)() const) const {
  if (!pool_) return (prototype_.topology().*counter)();
  std::uint64_t total = 0;
  for (const auto& replica : replicas_) total += (replica->topology().*counter)();
  return total;
}

std::uint64_t ParallelExecutor::path_cache_hits() const {
  return sum_topologies(&sim::Topology::path_cache_hits);
}

std::uint64_t ParallelExecutor::path_cache_misses() const {
  return sum_topologies(&sim::Topology::path_cache_misses);
}

std::uint64_t ParallelExecutor::path_trees_built() const {
  return sum_topologies(&sim::Topology::path_trees_built);
}

void ParallelExecutor::run(const std::vector<std::uint64_t>& seeds,
                           const std::function<void(sim::Network&, std::size_t)>& fn) {
  const bool track = perf_tracking_;
  auto run_range = [&](sim::Network& net, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (track) {
        const std::uint64_t t0 = now_ns();
        net.reset_epoch(seeds[i]);
        perf_.reset_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
      } else {
        net.reset_epoch(seeds[i]);
      }
      fn(net, i);
    }
    perf_.tasks.fetch_add(end - begin, std::memory_order_relaxed);
    perf_.batches.fetch_add(1, std::memory_order_relaxed);
  };
  if (pool_) {
    pool_->parallel_for_chunked(seeds.size(), dispatch_chunk(seeds.size(), threads()),
                                [&](int worker, std::size_t begin, std::size_t end) {
                                  run_range(*replicas_[static_cast<std::size_t>(worker)],
                                            begin, end);
                                });
    return;
  }
  // Inline mode: one chunk on the calling thread, accounted as the pool
  // would account a job. Tasks record into their own observers, as they
  // do on a replica, so the caller's attachment is set aside meanwhile.
  if (seeds.empty()) return;
  const std::uint64_t t0 = track ? now_ns() : 0;
  if (track) perf_.pool.record_job(seeds.size());
  {
    sim::ScopedObserver restore(prototype_, nullptr);
    prototype_.set_observer(nullptr);
    run_range(prototype_, 0, seeds.size());
  }
  if (track) {
    const std::uint64_t elapsed = now_ns() - t0;
    perf_.pool.busy_ns.fetch_add(elapsed, std::memory_order_relaxed);
    perf_.pool.wall_ns.fetch_add(elapsed, std::memory_order_relaxed);
  }
}

void export_exec_perf(obs::Observer& observer, const ParallelExecutor& exec) {
  obs::Registry& m = observer.metrics();
  const ExecutorPerf& p = exec.perf();
  m.counter("perf.clone_ns", obs::Domain::kWall).inc(p.clone_ns.load(std::memory_order_relaxed));
  m.counter("perf.reset_ns", obs::Domain::kWall).inc(p.reset_ns.load(std::memory_order_relaxed));
  m.counter("perf.tasks", obs::Domain::kWall).inc(p.tasks.load(std::memory_order_relaxed));
  m.counter("perf.batches", obs::Domain::kWall).inc(p.batches.load(std::memory_order_relaxed));
  m.counter("pathcache.hits", obs::Domain::kWall).inc(exec.path_cache_hits());
  m.counter("pathcache.misses", obs::Domain::kWall).inc(exec.path_cache_misses());
  m.counter("pathcache.trees", obs::Domain::kWall).inc(exec.path_trees_built());
  m.gauge("pool.workers", obs::Domain::kWall).set_max(exec.threads());
  m.gauge("pool.busy_ns", obs::Domain::kWall)
      .set_max(static_cast<std::int64_t>(p.pool.busy_ns.load(std::memory_order_relaxed)));
  m.gauge("pool.wall_ns", obs::Domain::kWall)
      .set_max(static_cast<std::int64_t>(p.pool.wall_ns.load(std::memory_order_relaxed)));
}

}  // namespace cen::scenario

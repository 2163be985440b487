// Minimal persistent worker pool for deterministic measurement fan-out.
//
// A pool owns N long-lived worker threads. `parallel_for(count, fn)`
// dispatches indices [0, count) to the workers through an atomic cursor
// (dynamic load balancing — measurement tasks vary wildly in cost) and
// blocks until every index has been processed. Each invocation receives
// the id of the worker running it, which callers use to select
// worker-private state (e.g. a per-worker `sim::Network` replica) without
// locking. Determinism is the *caller's* contract: tasks must be hermetic
// (result a pure function of the index), so the scheduling order the
// cursor happens to produce can never leak into results.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cen {

/// Execution statistics a pool publishes when a sink is attached.
/// `jobs`, `tasks` and `peak_pending` are scheduling-independent (they
/// depend only on what was submitted — deterministic, sim domain);
/// `busy_ns` and `wall_ns` are host-clock measurements (wall domain,
/// excluded from deterministic snapshots). All fields are atomics so
/// workers can add without locks; readers use relaxed loads after the
/// job has completed.
struct PoolStats {
  std::atomic<std::uint64_t> jobs{0};          // parallel_for invocations
  std::atomic<std::uint64_t> tasks{0};         // total indices dispatched
  std::atomic<std::uint64_t> peak_pending{0};  // largest single job
  std::atomic<std::uint64_t> busy_ns{0};       // summed task execution time
  std::atomic<std::uint64_t> wall_ns{0};       // summed parallel_for wall time

  /// Count one submitted job of `count` indices (jobs, tasks, peak).
  void record_job(std::size_t count);
};

class ThreadPool {
 public:
  /// Spawn `threads` workers (clamped to at least 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Attach (or detach with nullptr) a stats sink. Must be called while
  /// no job is in flight; the sink must outlive the pool or the next
  /// set_stats(nullptr). When no sink is attached the pool takes no
  /// timestamps at all — the disabled path costs one pointer test.
  void set_stats(PoolStats* stats);

  /// Run fn(worker_id, index) for every index in [0, count); returns when
  /// all invocations completed. The first exception a task throws is
  /// rethrown here (remaining indices are still drained). Not reentrant:
  /// tasks must not call parallel_for on the same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(int, std::size_t)>& fn);

  /// Chunked dispatch: fn(worker_id, begin, end) processes the contiguous
  /// index range [begin, end), end - begin <= chunk. One atomic cursor
  /// bump claims a whole chunk, so dispatch overhead (and cache-line
  /// contention on the cursor) is paid once per `chunk` tasks instead of
  /// once per task, and a worker's consecutive tasks share locality.
  /// Determinism is unaffected: chunking changes only how indices are
  /// *claimed*, never what any index computes.
  void parallel_for_chunked(std::size_t count, std::size_t chunk,
                            const std::function<void(int, std::size_t, std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a sane floor of 1.
  static int hardware_threads();

 private:
  void worker_loop(int id);

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;

  // Current job (guarded by mu_ for publication; cursor is atomic).
  const std::function<void(int, std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::size_t job_chunk_ = 1;
  std::atomic<std::size_t> cursor_{0};
  std::size_t workers_running_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
  PoolStats* stats_ = nullptr;  // guarded by mu_ for publication
};

}  // namespace cen

#include "core/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace cen {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

void PoolStats::record_job(std::size_t count) {
  jobs.fetch_add(1, std::memory_order_relaxed);
  tasks.fetch_add(count, std::memory_order_relaxed);
  std::uint64_t peak = peak_pending.load(std::memory_order_relaxed);
  while (count > peak &&
         !peak_pending.compare_exchange_weak(peak, count, std::memory_order_relaxed)) {
  }
}

void ThreadPool::set_stats(PoolStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = stats;
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(int, std::size_t)>& fn) {
  const std::function<void(int, std::size_t, std::size_t)> adapter =
      [&fn](int worker, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(worker, i);
      };
  parallel_for_chunked(count, 1, adapter);
}

void ThreadPool::parallel_for_chunked(
    std::size_t count, std::size_t chunk,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (chunk == 0) chunk = 1;
  PoolStats* stats = nullptr;
  std::uint64_t t0 = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    job_count_ = count;
    job_chunk_ = chunk;
    cursor_.store(0, std::memory_order_relaxed);
    workers_running_ = workers_.size();
    error_ = nullptr;
    ++generation_;
    stats = stats_;
  }
  if (stats != nullptr) {
    stats->record_job(count);
    t0 = now_ns();
  }
  start_cv_.notify_all();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return workers_running_ == 0; });
    job_ = nullptr;
    error = error_;
  }
  if (stats != nullptr) {
    stats->wall_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(int id) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int, std::size_t, std::size_t)>* job = nullptr;
    std::size_t count = 0;
    std::size_t chunk = 1;
    PoolStats* stats = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock,
                     [&] { return stop_ || generation_ != seen_generation; });
      if (stop_) return;
      seen_generation = generation_;
      job = job_;
      count = job_count_;
      chunk = job_chunk_;
      stats = stats_;
    }
    for (;;) {
      std::size_t begin = cursor_.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) break;
      std::size_t end = std::min(count, begin + chunk);
      std::uint64_t t0 = stats != nullptr ? now_ns() : 0;
      try {
        (*job)(id, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!error_) error_ = std::current_exception();
      }
      if (stats != nullptr) {
        stats->busy_ns.fetch_add(now_ns() - t0, std::memory_order_relaxed);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_running_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace cen

/// \file thread_pool.hpp
/// Minimal fixed-size thread pool with a parallel_for convenience wrapper.
///
/// Used to spread independent Monte-Carlo replications (and, optionally,
/// GENITOR trial restarts) across cores.  Work items are type-erased
/// std::move_only_function-style tasks; results flow back through
/// std::future.  On a single-core host the pool degrades gracefully to one
/// worker with negligible overhead.
///
/// The pool keeps process-wide Stats (task count, peak queue depth, and —
/// when set_timing(true) — per-task queue-wait and run latency).  They live
/// here rather than in src/obs because util sits below obs in the layer
/// order; obs::MetricsRegistry::snapshot() folds them into its document.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tsce::util {

/// The one thread-count rule of every threads/eval_threads option: 0 means
/// std::thread::hardware_concurrency() (at least 1), anything else is taken
/// as given.
[[nodiscard]] std::size_t resolve_thread_count(std::size_t requested) noexcept;

class ThreadPool {
 public:
  /// Process-wide tallies across every pool instance.  Counters are updated
  /// with relaxed atomics; wait/run latencies are only collected while
  /// set_timing(true) (timestamping every task costs two clock reads).
  struct Stats {
    std::atomic<std::uint64_t> tasks{0};            ///< tasks ever submitted
    std::atomic<std::uint64_t> max_queue_depth{0};  ///< peak queue length seen
    std::atomic<std::uint64_t> timed_tasks{0};      ///< tasks with latency data
    std::atomic<std::uint64_t> wait_ns_total{0};    ///< submit -> dequeue
    std::atomic<std::uint64_t> wait_ns_max{0};
    std::atomic<std::uint64_t> run_ns_total{0};     ///< dequeue -> completion

    void reset() noexcept {
      tasks.store(0, std::memory_order_relaxed);
      max_queue_depth.store(0, std::memory_order_relaxed);
      timed_tasks.store(0, std::memory_order_relaxed);
      wait_ns_total.store(0, std::memory_order_relaxed);
      wait_ns_max.store(0, std::memory_order_relaxed);
      run_ns_total.store(0, std::memory_order_relaxed);
    }
  };

  [[nodiscard]] static Stats& global_stats() noexcept;
  /// Enables per-task wait/run timing for pools created afterwards or tasks
  /// submitted afterwards (checked per submit).
  static void set_timing(bool enabled) noexcept;
  [[nodiscard]] static bool timing_enabled() noexcept;

  /// Creates \p num_threads workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Item item;
    item.fn = [task]() { (*task)(); };
    if (timing_enabled()) {
      item.timed = true;
      item.enqueued = std::chrono::steady_clock::now();
    }
    std::size_t depth;
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(std::move(item));
      depth = queue_.size();
    }
    note_submitted(depth);
    cv_.notify_one();
    return result;
  }

  /// Runs fn(i) for i in [0, count), blocking until all complete.  Exceptions
  /// from work items are rethrown (first one wins).
  template <typename F>
  void parallel_for(std::size_t count, F&& fn) {
    std::vector<std::future<void>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      futures.push_back(submit([&fn, i]() { fn(i); }));
    }
    drain(futures);
  }

  /// Runs fn(i) for i in [0, count) pulling indices from a shared atomic
  /// cursor with at most one task per worker — O(workers) futures instead of
  /// O(count), so barrier-stepped loops (the tempering engine's sweeps, the
  /// exact search's branch split) can call it repeatedly without flooding the
  /// queue.  fn must tolerate any index-to-worker schedule; blocks until all
  /// indices are done and rethrows the first work-item exception.
  template <typename F>
  void for_each_index(std::size_t count, F&& fn) {
    std::atomic<std::size_t> cursor{0};
    const std::size_t tasks = std::min(workers_.size(), count);
    std::vector<std::future<void>> futures;
    futures.reserve(tasks);
    for (std::size_t w = 0; w < tasks; ++w) {
      futures.push_back(submit([&fn, &cursor, count]() {
        for (std::size_t i = cursor.fetch_add(1); i < count;
             i = cursor.fetch_add(1)) {
          fn(i);
        }
      }));
    }
    drain(futures);
  }

 private:
  /// Waits on every future before rethrowing the first stored exception.
  /// Rethrowing from the first failed get() would abandon tasks that are
  /// still running against stack captures of the caller's frame
  /// (use-after-scope once the caller unwinds).
  static void drain(std::vector<std::future<void>>& futures) {
    std::exception_ptr first;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

  struct Item {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued{};
    bool timed = false;
  };

  static void note_submitted(std::size_t queue_depth) noexcept;

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<Item> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace tsce::util

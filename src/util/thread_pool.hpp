/// \file thread_pool.hpp
/// Minimal fixed-size thread pool and the one parallel loop built on it,
/// for_each_index, with run_in_lockstep for items that step in rounds.
///
/// Every parallel loop in the library and the benches goes through
/// for_each_index: the Monte-Carlo replications of the figure benches, the
/// BatchEvaluator's candidate fan-out (initial populations, the exact
/// search's branch split) and, through run_in_lockstep, the tempering
/// engine's replica workers.  Work items are type-erased tasks; results flow
/// back through std::future.  On a single-core host the pool degrades
/// gracefully to one worker with negligible overhead.
///
/// The pool keeps process-wide Stats (task count, peak queue depth, and —
/// when set_timing(true) — per-task queue-wait and run latency).  They live
/// here rather than in src/obs because util sits below obs in the layer
/// order; obs::MetricsRegistry::snapshot() folds them into its document.

#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
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

 private:
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

namespace detail {
/// Waits on every future before rethrowing the first stored exception.
/// Rethrowing from the first failed get() would abandon tasks that are still
/// running against stack captures of the caller's frame (use-after-scope
/// once the caller unwinds).
void drain(std::vector<std::future<void>>& futures);
}  // namespace detail

/// Runs fn(slot, i) for every i in [0, count) and blocks until all are done.
///
/// With a pool, at most pool->size() tasks pull indices from a shared atomic
/// cursor — O(workers) futures instead of O(count), so a loop can be called
/// repeatedly without flooding the queue.  \p slot (< pool->size()) names
/// the task running the index: no two indices run at the same time under one
/// slot, so fn may use it to pick per-worker scratch (a decode context, an LP
/// solver).  With no pool (nullptr) the loop runs inline, in index order,
/// under slot 0.  fn must tolerate any index-to-slot schedule; the first
/// exception it throws is rethrown once every task has finished.
///
/// An item may wait on other items of the same call (as at a std::barrier)
/// only when count <= pool->size() and the pool runs nothing else: only then
/// does every item get its own task, and so its own thread.  With more items
/// than threads, a waiting item holds its thread while the items it waits
/// for sit unstarted behind it, and the loop never ends.  run_in_lockstep
/// below relies on this.
template <typename F>
void for_each_index(ThreadPool* pool, std::size_t count, F&& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) fn(std::size_t{0}, i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  const std::size_t tasks = std::min(pool->size(), count);
  std::vector<std::future<void>> futures;
  futures.reserve(tasks);
  for (std::size_t slot = 0; slot < tasks; ++slot) {
    futures.push_back(pool->submit([&fn, &cursor, count, slot] {
      for (std::size_t i = cursor.fetch_add(1); i < count;
           i = cursor.fetch_add(1)) {
        fn(slot, i);
      }
    }));
  }
  detail::drain(futures);
}

/// Runs \p workers long-lived items in rounds: each round calls step(w) for
/// every worker w in [0, workers), then end_round() once, on one thread,
/// after every step of the round has returned and before any step of the
/// next round starts.  Rounds repeat while end_round() returns true, so at
/// least one round runs.  The workers start once, through for_each_index,
/// and meet at one std::barrier per round, whose completion runs end_round,
/// so worker w runs on one thread for the whole call and the caller's thread
/// sleeps until the last round ends.  The pool must have at least \p workers
/// threads and run nothing else (see for_each_index); with no pool,
/// \p workers must be 1 and the rounds run inline.
///
/// A throw must not strand the other workers at the barrier: a step's or
/// end_round's exception is caught, the round still completes, no further
/// round starts, and the first one (in worker order, then end_round's) is
/// rethrown once every worker has left.
template <typename Step, typename EndRound>
void run_in_lockstep(ThreadPool* pool, std::size_t workers, Step&& step,
                     EndRound&& end_round) {
  assert(pool == nullptr ? workers == 1 : workers <= pool->size());
  std::vector<std::exception_ptr> errors(workers + 1);  // the last: end_round
  bool more = true;
  auto completion = [&]() noexcept {
    more = std::none_of(errors.begin(), errors.end() - 1,
                        [](const std::exception_ptr& e) { return e != nullptr; });
    if (!more) return;
    try {
      more = end_round();
    } catch (...) {
      errors.back() = std::current_exception();
      more = false;
    }
  };
  std::barrier barrier(static_cast<std::ptrdiff_t>(workers), completion);
  for_each_index(pool, workers, [&](std::size_t, std::size_t w) {
    do {
      try {
        step(w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
      barrier.arrive_and_wait();
    } while (more);
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace tsce::util

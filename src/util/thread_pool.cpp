#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace tsce::util {

namespace {

std::atomic<bool> g_timing{false};

/// Relaxed running-maximum update (safe against concurrent raisers).
void raise_max(std::atomic<std::uint64_t>& cell, std::uint64_t v) noexcept {
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (v > cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

void detail::drain(std::vector<std::future<void>>& futures) {
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

std::size_t resolve_thread_count(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::Stats& ThreadPool::global_stats() noexcept {
  static Stats stats;
  return stats;
}

void ThreadPool::set_timing(bool enabled) noexcept {
  g_timing.store(enabled, std::memory_order_relaxed);
}

bool ThreadPool::timing_enabled() noexcept {
  return g_timing.load(std::memory_order_relaxed);
}

void ThreadPool::note_submitted(std::size_t queue_depth) noexcept {
  Stats& stats = global_stats();
  stats.tasks.fetch_add(1, std::memory_order_relaxed);
  raise_max(stats.max_queue_depth, queue_depth);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = resolve_thread_count(num_threads);
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Item item;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (item.timed) {
      Stats& stats = global_stats();
      const auto start = std::chrono::steady_clock::now();
      const auto wait_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(start -
                                                               item.enqueued)
              .count());
      item.fn();
      const auto run_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
      stats.timed_tasks.fetch_add(1, std::memory_order_relaxed);
      stats.wait_ns_total.fetch_add(wait_ns, std::memory_order_relaxed);
      raise_max(stats.wait_ns_max, wait_ns);
      stats.run_ns_total.fetch_add(run_ns, std::memory_order_relaxed);
    } else {
      item.fn();
    }
  }
}

}  // namespace tsce::util

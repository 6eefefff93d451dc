#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace tsce::util {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hits(100, 0);
  std::vector<std::size_t> slot_of(100, 99);
  for_each_index(&pool, hits.size(), [&](std::size_t slot, std::size_t i) {
    hits[i] += 1;
    slot_of[i] = slot;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
  for (int h : hits) EXPECT_EQ(h, 1);
  for (std::size_t slot : slot_of) EXPECT_LT(slot, pool.size());
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  for_each_index(&pool, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ForEachIndexCoversEveryIndex) {
  // No pool: the loop runs inline, in index order, under slot 0.
  std::vector<std::size_t> seen;
  for_each_index(nullptr, 100, [&](std::size_t slot, std::size_t i) {
    EXPECT_EQ(slot, 0u);
    seen.push_back(i);
  });
  std::vector<std::size_t> expected(100);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(seen, expected);
}

TEST(ThreadPool, ForEachIndexHandlesFewerItemsThanWorkers) {
  ThreadPool::Stats& stats = ThreadPool::global_stats();
  stats.reset();
  ThreadPool pool(4);
  std::vector<int> hits(2, 0);
  for_each_index(&pool, hits.size(),
                 [&](std::size_t, std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 1);
  EXPECT_EQ(stats.tasks.load(), 2u);  // one task per item, not per worker
  stats.reset();
}

TEST(ThreadPool, ForEachIndexZeroCountIsNoop) {
  bool called = false;
  for_each_index(nullptr, 0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ForEachIndexRepeatedBarrierSteps) {
  // The tempering engine calls it once per sweep: every call must fully
  // drain before the next begins, with only O(workers) queued tasks.
  ThreadPool pool(2);
  std::vector<int> hits(16, 0);
  for (int sweep = 0; sweep < 50; ++sweep) {
    for_each_index(&pool, hits.size(),
                   [&](std::size_t, std::size_t i) { hits[i] += 1; });
  }
  for (int h : hits) EXPECT_EQ(h, 50);
}

TEST(ThreadPool, ForEachIndexPropagatesException) {
  // Inline: the exception leaves the loop at the throwing index.
  std::size_t last = 0;
  EXPECT_THROW(for_each_index(nullptr, 8,
                              [&](std::size_t, std::size_t i) {
                                last = i;
                                if (i == 3) throw std::logic_error("bad");
                              }),
               std::logic_error);
  EXPECT_EQ(last, 3u);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  // The exception is rethrown only after every task has drained: no task may
  // still touch the caller's frame (here `done`) once the call unwinds.
  ThreadPool pool(2);
  std::atomic<int> done{0};
  EXPECT_THROW(for_each_index(&pool, 8,
                              [&](std::size_t, std::size_t i) {
                                if (i == 3) throw std::logic_error("bad index");
                                std::this_thread::sleep_for(
                                    std::chrono::milliseconds(2));
                                done.fetch_add(1);
                              }),
               std::logic_error);
  // The throwing task stops at index 3, the other one pulls every remaining
  // index: all seven others have finished by the time the call returns.
  EXPECT_EQ(done.load(), 7);
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
    }
    for (auto& f : futures) f.get();
  }  // destructor joins workers
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, DestructorRunsQueuedUnawaitedTasks) {
  std::atomic<int> counter{0};
  // The gate must outlive the pool: workers may still be draining when the
  // block ends, and destruction runs in reverse declaration order.
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  {
    ThreadPool pool(1);
    // Park the single worker so the remaining submissions pile up in the
    // queue, then destroy the pool without touching any future: the worker
    // must drain the backlog before joining (futures would otherwise report
    // broken_promise).
    (void)pool.submit([gate_open] { gate_open.wait(); });
    for (int i = 0; i < 32; ++i) {
      (void)pool.submit([&counter] { counter.fetch_add(1); });
    }
    gate.set_value();
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, StatsCountSubmissionsAndPeakDepth) {
  ThreadPool::Stats& stats = ThreadPool::global_stats();
  stats.reset();
  {
    ThreadPool pool(2);
    for_each_index(&pool, 24, [](std::size_t, std::size_t) {});
  }
  EXPECT_EQ(stats.tasks.load(), 2u);  // one task per worker
  EXPECT_GE(stats.max_queue_depth.load(), 1u);
  // Timing was off, so no latency samples were collected.
  EXPECT_EQ(stats.timed_tasks.load(), 0u);
  EXPECT_EQ(stats.run_ns_total.load(), 0u);
}

TEST(ThreadPool, TimingCollectsWaitAndRunLatency) {
  ThreadPool::Stats& stats = ThreadPool::global_stats();
  stats.reset();
  ThreadPool::set_timing(true);
  {
    ThreadPool pool(2);
    for_each_index(&pool, 8, [](std::size_t, std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  }
  ThreadPool::set_timing(false);
  EXPECT_EQ(stats.timed_tasks.load(), 2u);
  // 8 indices x >= 1 ms each, spread over the two tasks.
  EXPECT_GE(stats.run_ns_total.load(), 8u * 1'000'000u);
  EXPECT_GE(stats.wait_ns_max.load(), stats.wait_ns_total.load() / 2);
  stats.reset();
}

TEST(ThreadPool, TimingOffCollectsNoLatency) {
  ThreadPool::Stats& stats = ThreadPool::global_stats();
  stats.reset();
  ASSERT_FALSE(ThreadPool::timing_enabled());
  {
    ThreadPool pool(2);
    for_each_index(&pool, 4, [](std::size_t, std::size_t) {});
  }
  EXPECT_EQ(stats.tasks.load(), 2u);
  EXPECT_EQ(stats.timed_tasks.load(), 0u);
  stats.reset();
}

}  // namespace
}  // namespace tsce::util

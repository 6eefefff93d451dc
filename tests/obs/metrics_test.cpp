#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace tsce::obs {
namespace {

std::int64_t counter_value(const util::Json& snapshot, const std::string& name) {
  return static_cast<std::int64_t>(snapshot.at("counters").at(name).as_number());
}

TEST(Metrics, CounterAccumulates) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  auto& c = registry.counter("test.metrics.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(counter_value(registry.snapshot(), "test.metrics.counter"), 42);
}

TEST(Metrics, SameNameReturnsSameHandle) {
  auto& registry = MetricsRegistry::instance();
  EXPECT_EQ(&registry.counter("test.metrics.counter"),
            &registry.counter("test.metrics.counter"));
  EXPECT_EQ(&registry.gauge("test.metrics.gauge"),
            &registry.gauge("test.metrics.gauge"));
  EXPECT_EQ(&registry.histogram("test.metrics.hist"),
            &registry.histogram("test.metrics.hist"));
}

TEST(Metrics, CounterFoldsAcrossExitedThreads) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  auto& c = registry.counter("test.metrics.counter");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();  // shards fold into the retired totals
  EXPECT_EQ(counter_value(registry.snapshot(), "test.metrics.counter"),
            kThreads * kPerThread);
}

TEST(Metrics, GaugeTracksMaximum) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  auto& g = registry.gauge("test.metrics.gauge");
  g.observe(5);
  g.observe(17);
  g.observe(3);
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.at("gauges").at("test.metrics.gauge.max").as_number(), 17.0);
}

TEST(Metrics, GaugeFoldsMaxAcrossThreads) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  auto& g = registry.gauge("test.metrics.gauge");
  g.observe(9);
  std::thread other([&g] { g.observe(23); });
  other.join();
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.at("gauges").at("test.metrics.gauge.max").as_number(), 23.0);
}

TEST(Metrics, HistogramCountSumMaxAndBuckets) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  auto& h = registry.histogram("test.metrics.hist");
  h.record(0);     // exact range: own cell, le 0
  h.record(1);     // le 1
  h.record(2);     // le 2 (HDR keeps small values exact; pow2 merged 2 and 3)
  h.record(3);     // le 3
  h.record(1000);  // bit_width 10 -> octave cell [1000, 1007], le 1007
  const auto snapshot = registry.snapshot();
  const auto& hist = snapshot.at("histograms").at("test.metrics.hist");
  EXPECT_EQ(hist.at("count").as_number(), 5.0);
  EXPECT_EQ(hist.at("sum").as_number(), 1006.0);
  EXPECT_EQ(hist.at("min").as_number(), 0.0);
  EXPECT_EQ(hist.at("max").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(hist.at("mean").as_number(), 1006.0 / 5.0);
  // Quantiles resolve the rank max(1, floor(q*count)) with exact max at q=1.
  EXPECT_EQ(hist.at("p50").as_number(), 1.0);   // rank 2 -> sample 1
  EXPECT_EQ(hist.at("p90").as_number(), 3.0);   // rank 4 -> sample 3
  EXPECT_EQ(hist.at("p999").as_number(), 3.0);  // rank 4 at count 5
  EXPECT_EQ(hist.at("sig_digits").as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist.at("rel_err").as_number(), 1.0 / 64.0);

  const auto& buckets = hist.at("buckets").as_array();
  ASSERT_EQ(buckets.size(), 5u);  // empty buckets are omitted
  const double expected_le[] = {0.0, 1.0, 2.0, 3.0, 1007.0};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(buckets[i].at("le").as_number(), expected_le[i]) << i;
    EXPECT_EQ(buckets[i].at("n").as_number(), 1.0) << i;
  }
}

TEST(Metrics, HistogramFoldsAcrossExitedThreads) {
  // End-of-life ordering: each worker records into its own HDR shard; when
  // the thread exits, the shard folds into the registry's retired snapshot,
  // so a later snapshot() loses nothing — and the fold is byte-identical to
  // recording everything on one thread (merge is associative/commutative).
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  auto& h = registry.histogram("test.metrics.hist");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record(static_cast<std::uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& t : threads) t.join();  // shards fold into retired_hists
  const auto folded =
      registry.snapshot().at("histograms").at("test.metrics.hist").dump();

  registry.reset();
  auto& serial = registry.histogram("test.metrics.hist");
  for (int v = 0; v < kThreads * kPerThread; ++v) {
    serial.record(static_cast<std::uint64_t>(v));
  }
  const auto reference =
      registry.snapshot().at("histograms").at("test.metrics.hist").dump();
  EXPECT_EQ(folded, reference);
}

TEST(Metrics, ResetZeroesEverything) {
  auto& registry = MetricsRegistry::instance();
  registry.counter("test.metrics.counter").add(7);
  registry.gauge("test.metrics.gauge").observe(7);
  registry.histogram("test.metrics.hist").record(7);
  registry.reset();
  const auto snapshot = registry.snapshot();
  EXPECT_EQ(counter_value(snapshot, "test.metrics.counter"), 0);
  EXPECT_EQ(snapshot.at("gauges").at("test.metrics.gauge.max").as_number(), 0.0);
  EXPECT_EQ(
      snapshot.at("histograms").at("test.metrics.hist").at("count").as_number(),
      0.0);
}

TEST(Metrics, SnapshotFoldsThreadPoolStats) {
  auto& registry = MetricsRegistry::instance();
  registry.reset();
  {
    util::ThreadPool pool(2);
    util::for_each_index(&pool, 8, [](std::size_t, std::size_t) {});
  }
  const auto snapshot = registry.snapshot();
  ASSERT_TRUE(snapshot.contains("thread_pool"));
  EXPECT_EQ(snapshot.at("thread_pool").at("tasks").as_number(), 2.0);
  EXPECT_GE(snapshot.at("thread_pool").at("queue_depth.max").as_number(), 1.0);
}

/// "test.metrics.cap.<I>", spelled at compile time: MetricName accepts only
/// names the compiler can check.
template <std::size_t I>
struct CapName {
  static constexpr std::string_view kPrefix = "test.metrics.cap.";
  static constexpr auto kChars = [] {
    std::array<char, kPrefix.size() + 2> chars{};
    std::size_t n = 0;
    for (const char c : kPrefix) chars[n++] = c;
    chars[n++] = static_cast<char>('0' + I / 10);
    chars[n] = static_cast<char>('0' + I % 10);
    return chars;
  }();
  static constexpr std::string_view kName{kChars.data(), kChars.size()};
};

/// Registers gauge CapName<I> for each I in order; true once one throws
/// std::length_error (the rest are skipped).
template <std::size_t... I>
bool register_until_full(MetricsRegistry& registry, std::index_sequence<I...>) {
  bool threw = false;
  auto add = [&](MetricName name) {
    if (threw) return;
    try {
      (void)registry.gauge(name);
    } catch (const std::length_error&) {
      threw = true;
    }
  };
  (add(CapName<I>::kName), ...);
  return threw;
}

// Registers gauges until the fixed capacity trips.  Runs last in this suite:
// it permanently consumes the process's remaining gauge slots (handles are
// process-lifetime), which no later test in this binary needs.
TEST(Metrics, ZCapacityExhaustionThrows) {
  auto& registry = MetricsRegistry::instance();
  EXPECT_TRUE(register_until_full(
      registry, std::make_index_sequence<MetricsRegistry::kMaxGauges + 1>{}));
}

}  // namespace
}  // namespace tsce::obs

/// \file metrics.hpp
/// Process-wide registry of cheap, thread-locally aggregated metrics.
///
/// Instrumented code asks the registry once for a handle (Counter, MaxGauge,
/// Histogram) and then updates it on the hot path; every update touches only
/// the calling thread's shard (a plain relaxed load/store on a cache line no
/// other thread writes), so there is no contention and no lock.  snapshot()
/// folds all live shards plus the tallies of exited threads into one JSON
/// document; the thread-pool's queue/latency statistics (owned by util, which
/// obs sits above) are folded into the same snapshot.
///
/// Registration is bounded (kMaxCounters/kMaxGauges/kMaxHistograms) so shard
/// storage is a fixed-size block and handle references stay stable for the
/// process lifetime.  Metric names are dotted paths ("decode.calls",
/// "session.reject.latency") registered in names.hpp.
///
/// Hot-path modules that already keep local tallies (e.g. DecodeContext's
/// lifetime counters) act as their own "shard": they fold into the registry's
/// counters when the object dies, keeping their inner loops untouched.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/names.hpp"
#include "util/json.hpp"

namespace tsce::obs {

class MetricsRegistry;

/// Monotonic counter.  add() is wait-free: one relaxed load+store on the
/// calling thread's shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept;

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint32_t index) noexcept : index_(index) {}
  std::uint32_t index_;
};

/// Running-maximum gauge (e.g. peak queue depth).
class MaxGauge {
 public:
  void observe(std::uint64_t v) noexcept;

 private:
  friend class MetricsRegistry;
  explicit MaxGauge(std::uint32_t index) noexcept : index_(index) {}
  std::uint32_t index_;
};

/// HDR (log-linear) histogram of non-negative integer samples with bounded
/// relative error: 2 significant decimal digits (128 linear sub-buckets per
/// octave, 1.56% worst-case error) up to 2^47, tracking exact count, sum,
/// min, and max alongside the buckets.  Snapshots expose
/// p50/p90/p99/p999/mean; see obs/histogram.hpp for the bucket math.
///
/// record() is wait-free after the calling thread's first record on any
/// histogram (which allocates the thread's HDR shard in a cold helper).
class Histogram {
 public:
  void record(std::uint64_t v) noexcept;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::uint32_t index) noexcept : index_(index) {}
  std::uint32_t index_;
};

class MetricsRegistry {
 public:
  /// Opaque state, defined in metrics.cpp (public so the per-thread shard
  /// machinery in that file's anonymous namespace can name it).
  struct Impl;

  static constexpr std::size_t kMaxCounters = 64;
  static constexpr std::size_t kMaxGauges = 32;
  static constexpr std::size_t kMaxHistograms = 32;

  [[nodiscard]] static MetricsRegistry& instance();

  /// Returns the handle registered under \p name, creating it on first use.
  /// Handles are process-lifetime references.  Throws std::length_error when
  /// the fixed capacity is exhausted.  \p name is a compile-time constant
  /// from names.hpp (see MetricName).
  [[nodiscard]] Counter& counter(MetricName name);
  [[nodiscard]] MaxGauge& gauge(MetricName name);
  [[nodiscard]] Histogram& histogram(MetricName name);

  /// Folds every thread's shard (live and exited) into one JSON document:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...},
  ///  "thread_pool": {...}}.  Histogram entries carry HdrSnapshot::to_json
  /// output (count/sum/min/max/mean/p50/p90/p99/p999 + sparse buckets).
  /// Concurrent updates are allowed (relaxed reads may miss in-flight
  /// increments).  The fold is an elementwise sum, so for deterministically
  /// valued metrics the document is byte-identical regardless of how samples
  /// were spread across threads.
  [[nodiscard]] util::Json snapshot();

  /// Zeroes every metric (including thread-pool stats).  Test-only: callers
  /// must ensure no other thread is updating metrics concurrently.
  void reset();

 private:
  MetricsRegistry();

  /// Linear find-or-create under the registry lock (handle classes befriend
  /// only this class, so construction must happen inside a member).
  template <typename Handle>
  static Handle& find_or_add(std::vector<std::string>& names,
                             std::vector<Handle>& handles, std::size_t capacity,
                             std::string_view name, const char* kind);

  Impl* impl_;  // intentionally leaked singleton state (no static-destruction order issues)
};

}  // namespace tsce::obs

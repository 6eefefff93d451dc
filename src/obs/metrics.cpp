#include "obs/metrics.hpp"

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "util/hot.hpp"
#include "util/thread_pool.hpp"

namespace tsce::obs {

namespace {

/// One thread's slice of every metric.  Only the owning thread writes it;
/// snapshot() reads it with relaxed loads.  Histogram shards are full HDR
/// histograms (21 KiB each), so they are allocated lazily on the owning
/// thread's first record of that metric rather than eagerly for all
/// kMaxHistograms slots.
struct Shard {
  std::array<std::atomic<std::uint64_t>, MetricsRegistry::kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, MetricsRegistry::kMaxGauges> gauge_max{};
  std::array<std::atomic<HdrHistogram*>, MetricsRegistry::kMaxHistograms> hists{};
};

/// Owner-thread single-writer increment: no RMW, no lock prefix.
inline void bump(std::atomic<std::uint64_t>& cell, std::uint64_t n) noexcept {
  cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline void raise(std::atomic<std::uint64_t>& cell, std::uint64_t v) noexcept {
  if (v > cell.load(std::memory_order_relaxed)) {
    cell.store(v, std::memory_order_relaxed);
  }
}

}  // namespace

struct MetricsRegistry::Impl {
  std::mutex mu;  ///< guards names, handle storage, and the shard list
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  std::vector<Counter> counters;
  std::vector<MaxGauge> gauges;
  std::vector<Histogram> hists;
  std::vector<Shard*> live_shards;
  Shard retired;  ///< counter/gauge tallies folded in by exiting threads
  /// Histogram tallies of exited threads, pre-merged into plain snapshots
  /// (retiring a thread frees its 21 KiB-per-histogram shards).
  std::array<HdrSnapshot, kMaxHistograms> retired_hists;

  Impl() {
    counters.reserve(kMaxCounters);
    gauges.reserve(kMaxGauges);
    hists.reserve(kMaxHistograms);
  }

  void fold_and_remove(Shard* s) {
    std::lock_guard lock(mu);
    for (std::size_t i = 0; i < kMaxCounters; ++i) {
      bump(retired.counters[i], s->counters[i].load(std::memory_order_relaxed));
    }
    for (std::size_t i = 0; i < kMaxGauges; ++i) {
      raise(retired.gauge_max[i], s->gauge_max[i].load(std::memory_order_relaxed));
    }
    for (std::size_t i = 0; i < kMaxHistograms; ++i) {
      HdrHistogram* h = s->hists[i].load(std::memory_order_relaxed);
      if (h != nullptr) {
        h->merge_into(retired_hists[i]);
        delete h;
      }
    }
    std::erase(live_shards, s);
    delete s;
  }
};

namespace {

MetricsRegistry::Impl* g_impl = nullptr;  // set once by instance()

/// Registers a fresh shard on first metric touch from a thread and folds it
/// into the retired totals when the thread exits.
struct ShardOwner {
  Shard* shard;
  ShardOwner() : shard(new Shard) {
    std::lock_guard lock(g_impl->mu);
    g_impl->live_shards.push_back(shard);
  }
  ~ShardOwner() { g_impl->fold_and_remove(shard); }
};

inline Shard& local_shard() {
  // instance() has necessarily run before any handle exists, so g_impl is set.
  static thread_local ShardOwner owner;
  return *owner.shard;
}

void zero(Shard& s) {
  for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : s.gauge_max) g.store(0, std::memory_order_relaxed);
  for (auto& h : s.hists) {
    if (HdrHistogram* hist = h.load(std::memory_order_relaxed)) hist->reset();
  }
}

/// Cold first-record path: allocates the calling thread's HDR shard for slot
/// \p index.  Kept out of line (and out of any TSCE_HOT body) so the steady-
/// state record path is provably allocation-free.
[[gnu::noinline]] HdrHistogram* ensure_hist(Shard& s,
                                            std::uint32_t index) {
  // First-touch only: one allocation per (thread, histogram-slot) lifetime,
  // deliberately noinline'd out of the TSCE_HOT record() body; the steady
  // state never reaches it (test_no_alloc_decode records on a warmed
  // histogram and counts zero allocations).
  auto* h = new HdrHistogram();  // default geometry: 2 sig digits, 47 bits
  s.hists[index].store(h, std::memory_order_release);
  return h;
}

}  // namespace

void Counter::add(std::uint64_t n) noexcept { bump(local_shard().counters[index_], n); }

void MaxGauge::observe(std::uint64_t v) noexcept {
  raise(local_shard().gauge_max[index_], v);
}

TSCE_HOT void Histogram::record(std::uint64_t v) noexcept {
  Shard& s = local_shard();
  HdrHistogram* h = s.hists[index_].load(std::memory_order_relaxed);
  if (h == nullptr) h = ensure_hist(s, index_);
  h->record(v);
}

MetricsRegistry::MetricsRegistry() : impl_(new Impl) { g_impl = impl_; }

MetricsRegistry& MetricsRegistry::instance() {
  // Allocates exactly once per process (function-local static, leaked on
  // purpose so shutdown order cannot destroy the registry under a recording
  // thread).
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

template <typename Handle>
Handle& MetricsRegistry::find_or_add(std::vector<std::string>& names,
                                     std::vector<Handle>& handles,
                                     std::size_t capacity, std::string_view name,
                                     const char* kind) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return handles[i];
  }
  if (handles.size() == capacity) {
    throw std::length_error(std::string("MetricsRegistry: ") + kind +
                            " capacity exhausted registering '" + std::string(name) +
                            "'");
  }
  if (names.empty()) {
    // First registration sizes both vectors to the hard capacity, so the
    // registration path never reallocates even when reached from a hot frame.
    names.reserve(capacity);
    handles.reserve(capacity);
  }
  names.emplace_back(name);
  handles.push_back(Handle(static_cast<std::uint32_t>(handles.size())));
  return handles.back();
}

Counter& MetricsRegistry::counter(MetricName name) {
  std::lock_guard lock(impl_->mu);
  return find_or_add(impl_->counter_names, impl_->counters, kMaxCounters,
                     name.view(), "counter");
}

MaxGauge& MetricsRegistry::gauge(MetricName name) {
  std::lock_guard lock(impl_->mu);
  return find_or_add(impl_->gauge_names, impl_->gauges, kMaxGauges, name.view(),
                     "gauge");
}

Histogram& MetricsRegistry::histogram(MetricName name) {
  std::lock_guard lock(impl_->mu);
  return find_or_add(impl_->hist_names, impl_->hists, kMaxHistograms,
                     name.view(), "histogram");
}

util::Json MetricsRegistry::snapshot() {
  std::lock_guard lock(impl_->mu);
  auto shards = impl_->live_shards;
  shards.push_back(&impl_->retired);

  util::Json counters = util::Json::object();
  for (std::size_t i = 0; i < impl_->counter_names.size(); ++i) {
    std::uint64_t total = 0;
    for (const Shard* s : shards) {
      total += s->counters[i].load(std::memory_order_relaxed);
    }
    counters.set(impl_->counter_names[i], static_cast<std::int64_t>(total));
  }

  util::Json gauges = util::Json::object();
  for (std::size_t i = 0; i < impl_->gauge_names.size(); ++i) {
    std::uint64_t peak = 0;
    for (const Shard* s : shards) {
      peak = std::max(peak, s->gauge_max[i].load(std::memory_order_relaxed));
    }
    gauges.set(impl_->gauge_names[i] + ".max", static_cast<std::int64_t>(peak));
  }

  util::Json hists = util::Json::object();
  for (std::size_t i = 0; i < impl_->hist_names.size(); ++i) {
    // Elementwise-sum merge: associative and commutative, so the folded
    // snapshot is byte-identical no matter how samples were sharded.
    HdrSnapshot merged = impl_->retired_hists[i];
    for (const Shard* s : impl_->live_shards) {
      if (const HdrHistogram* h = s->hists[i].load(std::memory_order_acquire)) {
        h->merge_into(merged);
      }
    }
    hists.set(impl_->hist_names[i], merged.to_json());
  }

  // The thread pool keeps its own raw tallies (util sits below obs); fold
  // them into the same snapshot so there is one metrics document.
  const util::ThreadPool::Stats& pool = util::ThreadPool::global_stats();
  util::Json pool_json = util::Json::object();
  const auto tasks = pool.tasks.load(std::memory_order_relaxed);
  const auto timed = pool.timed_tasks.load(std::memory_order_relaxed);
  pool_json.set("tasks", static_cast<std::int64_t>(tasks));
  pool_json.set("queue_depth.max", static_cast<std::int64_t>(
                                       pool.max_queue_depth.load(std::memory_order_relaxed)));
  pool_json.set("timed_tasks", static_cast<std::int64_t>(timed));
  pool_json.set("task_wait_ns.total", static_cast<std::int64_t>(
                                          pool.wait_ns_total.load(std::memory_order_relaxed)));
  pool_json.set("task_wait_ns.max", static_cast<std::int64_t>(
                                        pool.wait_ns_max.load(std::memory_order_relaxed)));
  pool_json.set("task_run_ns.total", static_cast<std::int64_t>(
                                         pool.run_ns_total.load(std::memory_order_relaxed)));
  pool_json.set("task_run_ns.mean",
                timed > 0 ? static_cast<double>(
                                pool.run_ns_total.load(std::memory_order_relaxed)) /
                                static_cast<double>(timed)
                          : 0.0);

  util::Json doc = util::Json::object();
  doc.set("counters", std::move(counters));
  doc.set("gauges", std::move(gauges));
  doc.set("histograms", std::move(hists));
  doc.set("thread_pool", std::move(pool_json));
  return doc;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(impl_->mu);
  for (Shard* s : impl_->live_shards) zero(*s);
  zero(impl_->retired);
  for (HdrSnapshot& h : impl_->retired_hists) h = HdrSnapshot();
  util::ThreadPool::global_stats().reset();
}

}  // namespace tsce::obs

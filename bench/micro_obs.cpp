/// \file micro_obs.cpp
/// Microbenchmarks of the always-on observability layer itself: HDR histogram
/// record/snapshot, recorder ring events, the cycle-counter clock, and the
/// end-to-end per-sample overhead the hot paths pay (clock read + histogram
/// record + ring event).  CI runs BM_ObsOverhead* / BM_HdrRecord as a
/// release-leg smoke so a regression in the instrumentation cost itself is
/// caught, not just regressions in the instrumented code.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <random>
#include <vector>

#include "obs/clock.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace {

using namespace tsce;

/// Latency-shaped samples (lognormal around ~20 us with a heavy tail).
std::vector<std::uint64_t> latency_samples(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::lognormal_distribution<double> dist(10.0, 1.2);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = static_cast<std::uint64_t>(dist(rng));
  return out;
}

/// Raw HdrHistogram::record on a standalone shard: the index math plus four
/// owner-thread relaxed bumps.
void BM_HdrRecord(benchmark::State& state) {
  obs::HdrHistogram hist;
  const auto samples = latency_samples(4096, 42);
  std::size_t i = 0;
  for (auto _ : state) {
    hist.record(samples[i++ & 4095]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rel_err"] = hist.layout().max_relative_error();
}
BENCHMARK(BM_HdrRecord);

/// Snapshot + the full quantile spread, at several populated sizes.
void BM_HdrSnapshotQuantiles(benchmark::State& state) {
  obs::HdrHistogram hist;
  for (const auto v :
       latency_samples(static_cast<std::size_t>(state.range(0)), 7)) {
    hist.record(v);
  }
  for (auto _ : state) {
    const obs::HdrSnapshot snap = hist.snapshot();
    benchmark::DoNotOptimize(snap.quantile(0.50));
    benchmark::DoNotOptimize(snap.quantile(0.90));
    benchmark::DoNotOptimize(snap.quantile(0.99));
    benchmark::DoNotOptimize(snap.quantile(0.999));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HdrSnapshotQuantiles)->Arg(1024)->Arg(65536);

/// One cycle-counter read (the unit every latency sample pays twice).
void BM_ObsOverheadClock(benchmark::State& state) {
  (void)obs::ticks_per_ns();  // calibrate outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::clock_ticks());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["ticks_per_ns"] = obs::ticks_per_ns();
}
BENCHMARK(BM_ObsOverheadClock);

/// Registry-routed histogram record: thread-local shard lookup + HDR record.
void BM_ObsOverheadRegistryHistogram(benchmark::State& state) {
  auto& hist =
      obs::MetricsRegistry::instance().histogram(obs::names::kBenchMicroHdr);
  hist.record(1);  // warm: allocate this thread's shard off the timed path
  const auto samples = latency_samples(4096, 9);
  std::size_t i = 0;
  for (auto _ : state) {
    hist.record(samples[i++ & 4095]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsOverheadRegistryHistogram);

/// One recorder ring event (timestamp + five stores).
void BM_ObsOverheadRecorderEvent(benchmark::State& state) {
  obs::fr_record(obs::FrKind::kMark, 0, 0, 0);  // warm the ring
  std::uint64_t n = 0;
  for (auto _ : state) {
    obs::fr_record(obs::FrKind::kMark, n++, 2, 3);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsOverheadRecorderEvent);

/// The combined tax one instrumented decode pays: two clock reads, the
/// ticks->ns conversion, a registry histogram record, and a ring event.
void BM_ObsOverheadDecodeSample(benchmark::State& state) {
  auto& hist =
      obs::MetricsRegistry::instance().histogram(obs::names::kBenchMicroHdr);
  hist.record(1);
  obs::fr_record(obs::FrKind::kMark, 0, 0, 0);
  (void)obs::ticks_per_ns();
  for (auto _ : state) {
    const std::uint64_t t0 = obs::clock_ticks();
    benchmark::DoNotOptimize(t0);
    const std::uint64_t ns = obs::ticks_to_ns(obs::clock_ticks() - t0);
    hist.record(ns);
    obs::fr_note_decode(ns, 3, 5);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsOverheadDecodeSample);

}  // namespace

BENCHMARK_MAIN();

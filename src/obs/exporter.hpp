/// \file exporter.hpp
/// Cadence-based time-series export of MetricsRegistry snapshots.
///
/// The registry's snapshot() is a point-in-time fold; long runs (service
/// soak, bench sweeps) want the *trajectory* — throughput ramps, tail-latency
/// drift, reject bursts — which means sampling the registry on a cadence and
/// persisting every sample.  MetricsExporter owns that loop: a background
/// thread wakes every period, snapshots the registry, stamps the sample with
/// a sequence number and seconds-since-start, and appends it to the output.
///
/// Two formats:
///   * kJsonl        — append-only series: one header record carrying RunInfo
///                     provenance, then one {"t":"sample","seq","t_s",
///                     "metrics":{...}} record per tick.  This is the format
///                     tools/trace_report --metrics-series folds into
///                     throughput / tail-latency tables and CSV.
///   * kOpenMetrics  — the file is rewritten every tick as an OpenMetrics
///                     text exposition (counters as _total, histograms as
///                     _count/_sum plus quantile samples, terminated by
///                     "# EOF") for scrape-style collection.
///
/// Each tick also calls trace_poll(), so a SIGUSR1-requested write of the
/// recorder rings into the open trace is serviced within one export period —
/// the exporter doubles as the process's observability housekeeping tick.
///
/// The exporter only *reads* telemetry; it never updates a metric or records
/// an event, so its background thread creates no registry shard or recorder
/// state and cannot perturb determinism-audited runs.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "util/json.hpp"

namespace tsce::obs {

struct MetricsExporterConfig {
  enum class Format { kJsonl, kOpenMetrics };

  std::string path;
  Format format = Format::kJsonl;
  std::uint32_t period_ms = 1000;
};

class MetricsExporter {
 public:
  explicit MetricsExporter(MetricsExporterConfig config);
  ~MetricsExporter();  // implies stop()

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  /// Opens the output (JSONL: writes the RunInfo header) and starts the
  /// sampler thread.  Returns false when the file cannot be opened or the
  /// exporter is already running.
  bool start();

  /// Takes one final sample, stops the thread, and closes the output.
  /// Idempotent.
  void stop();

  /// Takes one sample synchronously (also called by the sampler thread).
  /// Requires start(); returns false when not running or on I/O failure.
  bool export_once();

  /// Samples written so far.
  [[nodiscard]] std::uint64_t samples() const noexcept;

  [[nodiscard]] const MetricsExporterConfig& config() const noexcept {
    return config_;
  }

 private:
  void run();
  bool write_sample_locked(const util::Json& metrics, double t_s);

  MetricsExporterConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  std::FILE* file_ = nullptr;  // JSONL appends; OpenMetrics reopens per tick
  bool running_ = false;
  bool stop_requested_ = false;
  std::uint64_t seq_ = 0;
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace tsce::obs

#include "obs/exporter.hpp"

#include <cinttypes>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/run_info.hpp"
#include "obs/trace.hpp"

namespace tsce::obs {

MetricsExporter::MetricsExporter(MetricsExporterConfig config)
    : config_(std::move(config)) {}

MetricsExporter::~MetricsExporter() { stop(); }

bool MetricsExporter::start() {
  std::unique_lock lock(mu_);
  if (running_) return false;
  file_ = std::fopen(config_.path.c_str(), "w");
  if (file_ == nullptr) return false;
  const std::string header =
      "{\"t\":\"header\",\"version\":1,\"exporter\":\"metrics\","
      "\"period_ms\":" +
      std::to_string(config_.period_ms) +
      ",\"run_info\":" + RunInfo::current().to_json().dump() + "}\n";
  std::fwrite(header.data(), 1, header.size(), file_);
  std::fflush(file_);
  running_ = true;
  stop_requested_ = false;
  seq_ = 0;
  t0_ = std::chrono::steady_clock::now();
  lock.unlock();
  thread_ = std::thread([this] { run(); });
  return true;
}

void MetricsExporter::run() {
  std::unique_lock lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(config_.period_ms),
                 [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    trace_poll();
    export_once();
    lock.lock();
  }
}

bool MetricsExporter::export_once() {
  util::Json metrics;
  {
    std::lock_guard lock(mu_);
    if (!running_) return false;
  }
  // Snapshot outside mu_ so a slow registry fold never delays stop().
  metrics = MetricsRegistry::instance().snapshot();
  std::lock_guard lock(mu_);
  if (!running_) return false;
  const double t_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  return write_sample_locked(metrics, t_s);
}

bool MetricsExporter::write_sample_locked(const util::Json& metrics,
                                          double t_s) {
  if (file_ == nullptr) return false;
  char prefix[96];
  std::snprintf(prefix, sizeof prefix,
                "{\"t\":\"sample\",\"seq\":%" PRIu64 ",\"t_s\":%.6f,"
                "\"metrics\":",
                seq_, t_s);
  const std::string line = std::string(prefix) + metrics.dump() + "}\n";
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return false;
  }
  std::fflush(file_);
  ++seq_;
  return true;
}

void MetricsExporter::stop() {
  {
    std::lock_guard lock(mu_);
    if (!running_ && !thread_.joinable()) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final sample so short runs (shorter than one period) still export data.
  export_once();
  std::lock_guard lock(mu_);
  running_ = false;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::uint64_t MetricsExporter::samples() const noexcept {
  std::lock_guard lock(mu_);
  return seq_;
}

}  // namespace tsce::obs

#include "obs/exporter.hpp"

#include <cinttypes>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/run_info.hpp"
#include "obs/trace.hpp"

namespace tsce::obs {

namespace {

/// OpenMetrics sample names: dots become underscores, everything outside
/// [a-zA-Z0-9_] is dropped.
std::string sanitize(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      out += c;
    } else if (c == '.') {
      out += '_';
    }
  }
  return out;
}

void append_sample(std::string& out, const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " %.17g\n", value);
  out += name;
  out += buf;
}

/// Renders one registry snapshot as an OpenMetrics text exposition.
std::string render_openmetrics(const util::Json& metrics) {
  std::string out;
  if (metrics.contains("counters")) {
    for (const auto& [name, v] : metrics.at("counters").as_object()) {
      const std::string m = "tsce_" + sanitize(name);
      out += "# TYPE " + m + " counter\n";
      append_sample(out, m + "_total", v.as_number());
    }
  }
  if (metrics.contains("gauges")) {
    for (const auto& [name, v] : metrics.at("gauges").as_object()) {
      const std::string m = "tsce_" + sanitize(name);
      out += "# TYPE " + m + " gauge\n";
      append_sample(out, m, v.as_number());
    }
  }
  if (metrics.contains("histograms")) {
    for (const auto& [name, h] : metrics.at("histograms").as_object()) {
      const std::string m = "tsce_" + sanitize(name);
      out += "# TYPE " + m + " summary\n";
      append_sample(out, m + "_count", h.at("count").as_number());
      append_sample(out, m + "_sum", h.at("sum").as_number());
      for (const char* q : {"0.5", "0.9", "0.99", "0.999"}) {
        const std::string key =
            q == std::string_view("0.5")    ? "p50"
            : q == std::string_view("0.9")  ? "p90"
            : q == std::string_view("0.99") ? "p99"
                                            : "p999";
        if (!h.contains(key)) continue;
        append_sample(out, m + "{quantile=\"" + q + "\"}",
                      h.at(key).as_number());
      }
      if (h.contains("max")) append_sample(out, m + "_max", h.at("max").as_number());
    }
  }
  out += "# EOF\n";
  return out;
}

}  // namespace

MetricsExporter::MetricsExporter(MetricsExporterConfig config)
    : config_(std::move(config)) {}

MetricsExporter::~MetricsExporter() { stop(); }

bool MetricsExporter::start() {
  std::unique_lock lock(mu_);
  if (running_) return false;
  if (config_.format == MetricsExporterConfig::Format::kJsonl) {
    file_ = std::fopen(config_.path.c_str(), "w");
    if (file_ == nullptr) return false;
    const std::string header =
        "{\"t\":\"header\",\"version\":1,\"exporter\":\"metrics\","
        "\"period_ms\":" +
        std::to_string(config_.period_ms) +
        ",\"run_info\":" + RunInfo::current().to_json().dump() + "}\n";
    std::fwrite(header.data(), 1, header.size(), file_);
    std::fflush(file_);
  }
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
  if (config_.format == MetricsExporterConfig::Format::kJsonl) {
    if (file_ == nullptr) return false;
    char prefix[96];
    std::snprintf(prefix, sizeof prefix,
                  "{\"t\":\"sample\",\"seq\":%" PRIu64 ",\"t_s\":%.6f,"
                  "\"metrics\":",
                  seq_, t_s);
    const std::string line =
        std::string(prefix) + metrics.dump() + "}\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
      return false;
    }
    std::fflush(file_);
  } else {
    // OpenMetrics exposition is a point-in-time scrape: rewrite the file.
    std::FILE* f = std::fopen(config_.path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string body = render_openmetrics(metrics);
    const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    if (!ok) return false;
  }
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

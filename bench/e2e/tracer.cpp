#include "tracer.hpp"

#include <cstdio>
#include <memory>

namespace tsce::bench::e2e {

std::string_view layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kGenitorOps: return "genitor.ops";
    case Layer::kImr: return "imr";
    case Layer::kCommit: return "session.commit";
    case Layer::kSnapshot: return "session.snapshot";
    case Layer::kRestore: return "session.restore";
    case Layer::kInstance: return "unattributed";
    case Layer::kOrdered: return "ordered";
    case Layer::kPsg: return "psg";
    case Layer::kGenitor: return "genitor";
    case Layer::kDecode: return "decode";
    case Layer::kLpBuild: return "lp.build";
    case Layer::kLpSolve: return "lp.solve";
    case Layer::kTemper: return "temper";
    case Layer::kExact: return "exact";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint32_t SpanLog::open(Layer layer, std::uint32_t parent, std::uint32_t instance) {
  Span span;
  span.layer = layer;
  span.parent = parent;
  span.instance = instance;
  spans_.push_back(span);
  // Stamp last so the span's own bookkeeping is charged to its parent.
  spans_.back().start = obs::clock_ticks();
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void SpanLog::close(std::uint32_t id, const Fold* fold) {
  const std::uint64_t now = obs::clock_ticks();
  Span& span = spans_[id];
  span.end = now;
  if (fold != nullptr) {
    span.fold = static_cast<std::uint32_t>(folds_.size());
    folds_.push_back(*fold);
  }
}

std::array<double, kLayerCount> SpanLog::self_ns() const {
  // Self ticks per span: duration minus child spans minus folded work.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = static_cast<double>(spans_[i].end - spans_[i].start);
  }
  std::array<double, kLayerCount> by_layer{};
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent != kNoSpan) {
      self[span.parent] -= static_cast<double>(span.end - span.start);
    }
    if (span.fold != kNoSpan) {
      const Fold& fold = folds_[span.fold];
      for (std::size_t l = 0; l < kFoldedLayers; ++l) {
        self[i] -= static_cast<double>(fold.ticks[l]);
        by_layer[l] += static_cast<double>(fold.ticks[l]);
      }
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_layer[static_cast<std::size_t>(spans_[i].layer)] += self[i];
  }
  for (double& v : by_layer) v /= obs::ticks_per_ns();
  return by_layer;
}

double SpanLog::root_ns() const {
  std::uint64_t total = 0;
  for (const Span& span : spans_) {
    if (span.parent == kNoSpan) total += span.end - span.start;
  }
  return ticks_ns(total);
}

std::array<std::uint64_t, kFoldedLayers> SpanLog::folded_calls() const {
  std::array<std::uint64_t, kFoldedLayers> calls{};
  for (const Fold& fold : folds_) {
    for (std::size_t l = 0; l < kFoldedLayers; ++l) calls[l] += fold.calls[l];
  }
  return calls;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
  auto us = [&](std::uint64_t ticks) { return ticks_ns(ticks) / 1e3; };
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out.get());
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.layer == Layer::kDecode && span.instance != 0) continue;
    std::fprintf(out.get(),
                 "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,"
                 "\"instance\":%u",
                 first ? "" : ",\n", static_cast<int>(layer_name(span.layer).size()),
                 layer_name(span.layer).data(), us(span.start - origin),
                 us(span.end - span.start), i,
                 span.parent == kNoSpan ? -1LL : static_cast<long long>(span.parent),
                 span.instance);
    if (span.fold != kNoSpan) {
      const Fold& fold = folds_[span.fold];
      for (std::size_t l = 0; l < kFoldedLayers; ++l) {
        if (fold.calls[l] == 0) continue;
        const std::string_view name = layer_name(static_cast<Layer>(l));
        std::fprintf(out.get(), ",\"%.*s.calls\":%u,\"%.*s.us\":%.3f",
                     static_cast<int>(name.size()), name.data(), fold.calls[l],
                     static_cast<int>(name.size()), name.data(), us(fold.ticks[l]));
      }
    }
    std::fputs("}}", out.get());
    first = false;
  }
  std::fputs("\n]}\n", out.get());
  // Close explicitly: fclose flushes the buffered tail and can fail.
  std::FILE* file = out.release();
  const bool written = std::ferror(file) == 0;
  return std::fclose(file) == 0 && written;
}

}  // namespace tsce::bench::e2e

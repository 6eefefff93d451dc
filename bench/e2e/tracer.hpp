/// \file tracer.hpp
/// In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded from the benchmark's own code around public library
/// calls: instance -> allocator -> GENITOR trial -> decode, with the LP build
/// and solve under the instance.  Work below the decode level (IMR mapping,
/// session commits, snapshots, restores) runs about a million times per
/// instance, so it is not recorded as spans: each decode span carries a Fold
/// with per-layer call counts and busy ticks instead.  A span's self time is
/// its duration minus its child spans and its folded work, so self times stay
/// exact while memory stays bounded.
///
/// Times are obs::clock_ticks() readings, converted to nanoseconds only when
/// the log is reported or written.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"

namespace tsce::bench::e2e {

/// Attribution layers, named after the library modules they time.  The
/// first kFoldedLayers are the ones folded into spans (see Fold).
enum class Layer : std::uint8_t {
  kGenitorOps, ///< genitor operators: crossover, mutate, random_chromosome
  kImr,        ///< core.imr: imr_map_string_into
  kCommit,     ///< analysis.session: try_commit, accepted or rejected
  kSnapshot,   ///< analysis.session: snapshot_into
  kRestore,    ///< analysis.session: restore_from
  kInstance,   ///< root span: self time is the unattributed remainder
  kOrdered,    ///< core.ordered: MWF / TF allocate, seed orderings
  kPsg,        ///< core.psg: problem set-up and the best-of-trials fold
  kGenitor,    ///< genitor: Genitor::run minus decodes and operators
  kDecode,     ///< core.decode: prefix diff and bookkeeping of one decode
  kLpBuild,    ///< lp: build_upper_bound_lp_into
  kLpSolve,    ///< lp: solve
  kTemper,     ///< core.local_search: SimulatedAnnealing (tempering engine)
  kExact,      ///< core.exact: ExactPermutationSearch
  kCount,
};

inline constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);
inline constexpr std::size_t kFoldedLayers = static_cast<std::size_t>(Layer::kInstance);

[[nodiscard]] std::string_view layer_name(Layer layer) noexcept;

/// Work folded into one span instead of being recorded as child spans.
struct Fold {
  std::array<std::uint64_t, kFoldedLayers> ticks{};
  std::array<std::uint32_t, kFoldedLayers> calls{};

  /// \p layer must be one of the first kFoldedLayers.
  void add(Layer layer, std::uint64_t dt) noexcept {
    ticks[static_cast<std::size_t>(layer)] += dt;
    ++calls[static_cast<std::size_t>(layer)];
  }
};

/// Nanoseconds in a tick delta, as a double (sums of many spans stay exact
/// to well below a nanosecond).
[[nodiscard]] inline double ticks_ns(std::uint64_t ticks) noexcept {
  return static_cast<double>(ticks) / obs::ticks_per_ns();
}

class SpanLog {
 public:
  static constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

  /// Opens a span now; \p parent is kNoSpan for a root.
  std::uint32_t open(Layer layer, std::uint32_t parent, std::uint32_t instance);
  /// Closes span \p id now, attaching \p fold when given.
  void close(std::uint32_t id, const Fold* fold = nullptr);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Duration of a closed span, in seconds.
  [[nodiscard]] double seconds(std::uint32_t id) const noexcept {
    return ticks_ns(spans_[id].end - spans_[id].start) / 1e9;
  }

  /// Summed self time per layer over all spans, in nanoseconds.  Work folded
  /// into a span is credited to the fold's layers.
  [[nodiscard]] std::array<double, kLayerCount> self_ns() const;
  /// Summed duration of the root (instance) spans, in nanoseconds.
  [[nodiscard]] double root_ns() const;
  /// Calls folded into spans, per folded layer.
  [[nodiscard]] std::array<std::uint64_t, kFoldedLayers> folded_calls() const;

  /// Writes the log as Chrome trace-event JSON.  Decode spans are written for
  /// the first instance only, which keeps the file small; every other span is
  /// written.  Returns false when the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::uint32_t parent = kNoSpan;
    std::uint32_t instance = 0;
    std::uint32_t fold = kNoSpan;  ///< index into folds_
    Layer layer = Layer::kInstance;
  };

  std::vector<Span> spans_;
  std::vector<Fold> folds_;
};

/// RAII helper for spans that need no fold.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, Layer layer, std::uint32_t parent, std::uint32_t instance)
      : log_(log), id_(log.open(layer, parent, instance)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

}  // namespace tsce::bench::e2e

/// \file traced_psg.hpp
/// PSG and Seeded PSG rebuilt from public library pieces, with spans.
///
/// genitor::Genitor runs over a benchmark-side problem that passes the
/// genetic operators through to core::PermutationProblem and decodes through
/// TracedDecoder, a copy of core::DecodeContext's prefix-reuse decode made of
/// imr_map_string_into, AllocationSession::try_commit, snapshot_into and
/// restore_from.  Per-trial rng spawning and the best-of-trials fold follow
/// Psg::allocate, so the result is bit-identical to the untraced allocator;
/// the benchmark checks that, and checks every 64th decode against
/// core::decode_order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/session.hpp"
#include "core/allocator.hpp"
#include "core/imr.hpp"
#include "core/psg.hpp"
#include "obs/histogram.hpp"
#include "tracer.hpp"

namespace tsce::bench::e2e {

/// A decoded order kept for verification after the timed pipeline.
struct DecodeCheck {
  std::vector<model::StringId> order;
  analysis::Fitness fitness;
};

/// Tallies of the traced searches of one run, below the span level.
/// Latency histograms hold clock ticks.
struct SearchStats {
  obs::HdrHistogram decode_ticks;
  obs::HdrHistogram imr_ticks;
  obs::HdrHistogram accept_ticks;
  obs::HdrHistogram reject_ticks;
  std::uint64_t decodes = 0;
  std::uint64_t deployed_strings = 0;  ///< summed decode depths
  std::uint64_t evaluations = 0;
  std::uint64_t useful_evaluations = 0;  ///< evaluations until the final elite appeared
  std::vector<DecodeCheck> pending;
};

/// core::DecodeContext's decode, with its sub-calls timed into a Fold.
class TracedDecoder {
 public:
  explicit TracedDecoder(const model::SystemModel& model);

  /// Decodes \p order reusing the longest common prefix with the previous
  /// decode, exactly as core::decode_order_into does.
  analysis::Fitness decode(std::span<const model::StringId> order, Fold& fold,
                           SearchStats& stats);

 private:
  analysis::AllocationSession session_;
  std::vector<model::StringId> committed_;
  std::vector<analysis::SessionSnapshot> checkpoints_;
  core::ImrScratch imr_scratch_;
  std::vector<model::MachineId> assignment_;
};

/// Psg::allocate (or SeededPsg::allocate when \p seeded) under spans: one
/// allocator span under \p parent, one span per GENITOR trial, one per decode.
[[nodiscard]] core::AllocatorResult traced_psg(const model::SystemModel& model,
                                               const core::PsgOptions& options,
                                               bool seeded, util::Rng& rng,
                                               SpanLog& log, std::uint32_t parent,
                                               std::uint32_t instance,
                                               SearchStats& stats);

}  // namespace tsce::bench::e2e

/// \file evaluator.hpp
/// Batch-parallel candidate evaluation for the permutation searches.
///
/// BatchEvaluator owns a util::ThreadPool and one DecodeContext per worker.
/// Work items are spread by util::for_each_index, but every result slot is
/// written by index, and the prefix-reuse decode is bit-exact regardless
/// of what a worker's context evaluated before (see decode.hpp) — so the
/// output is byte-identical at 1 thread and at N threads, for any work
/// schedule.  Determinism contract: anything randomized inside a work item
/// must derive its generator from the item index (util::Rng::stream), never
/// from a shared stream.

#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "analysis/metrics.hpp"
#include "core/decode.hpp"
#include "model/system_model.hpp"
#include "util/thread_pool.hpp"

namespace tsce::core {

class BatchEvaluator {
 public:
  /// \p threads = 1 runs inline with no pool; 0 uses
  /// std::thread::hardware_concurrency() (util::resolve_thread_count).
  explicit BatchEvaluator(const model::SystemModel& model, std::size_t threads = 1);

  [[nodiscard]] std::size_t num_workers() const noexcept { return contexts_.size(); }

  /// Worker w's context (w < num_workers()).  Serial callers share worker 0.
  [[nodiscard]] DecodeContext& context(std::size_t w) noexcept { return *contexts_[w]; }

  /// Decodes every order for its fitness; result i is bit-identical to
  /// decode_order(model, orders[i]).fitness at any thread count.
  [[nodiscard]] std::vector<analysis::Fitness> evaluate_fitness(
      std::span<const std::vector<model::StringId>> orders);

  /// Deterministic parallel map: runs fn(item, ctx) for item in [0, count)
  /// with some worker's context.  fn must write its result into a slot keyed
  /// by item and must not touch shared mutable state; per-item randomness
  /// must come from util::Rng::stream(seed, item).
  template <typename Fn>
  void for_each(std::size_t count, Fn&& fn) {
    util::for_each_index(pool_.get(), count,
                         [this, &fn](std::size_t slot, std::size_t i) {
                           fn(i, *contexts_[slot]);
                         });
  }

 private:
  std::vector<std::unique_ptr<DecodeContext>> contexts_;
  std::unique_ptr<util::ThreadPool> pool_;  // null in serial mode
};

}  // namespace tsce::core

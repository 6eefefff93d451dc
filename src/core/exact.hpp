/// \file exact.hpp
/// Exhaustive search over the permutation space: the true optimum of the
/// "order strings, decode with the IMR" formulation for small instances.
///
/// With Q strings the search decodes all Q! orderings (with memoized prefix
/// pruning), so it is only practical for Q <= ~8.  Its value is as ground
/// truth: it sandwiches the heuristics (heuristic <= exact <= LP bound) in
/// tests and ablations.

#pragma once

#include <cstddef>

#include "core/allocator.hpp"

namespace tsce::core {

struct ExactSearchOptions {
  /// Refuse instances with more strings than this (Q! explodes).
  std::size_t max_strings = 9;
  /// Hard cap on decodes; the best-so-far is returned when exhausted.
  std::size_t max_evaluations = 2'000'000;
  /// Worker threads (1 runs inline with no pool, 0 uses
  /// std::thread::hardware_concurrency()).  The top level of the tree splits
  /// into one subtree task per first string, each with an independent bound
  /// and a max_evaluations/Q budget slice, folded best-of in branch index
  /// order — byte-identical at any thread count.
  std::size_t threads = 1;
};

/// Branch-and-bound over orderings: a depth-first enumeration that prunes a
/// prefix as soon as its decode already fails (every completion of a failing
/// prefix decodes to the same partial allocation, because the sequential
/// decode stops at the first infeasible string).
class ExactPermutationSearch final : public Allocator {
 public:
  explicit ExactPermutationSearch(ExactSearchOptions options = {})
      : options_(options) {}

  /// Throws std::invalid_argument when the instance exceeds max_strings.
  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "Exact"; }

 private:
  ExactSearchOptions options_;
};

}  // namespace tsce::core

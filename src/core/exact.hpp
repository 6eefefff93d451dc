/// \file exact.hpp
/// Exhaustive search over the permutation space: the true optimum of the
/// "order strings, decode with the IMR" formulation for small instances.
///
/// The tree over Q strings has up to Q! leaves.  A branch-and-bound cuts it
/// down (see ExactPermutationSearch), but the cost still grows several-fold
/// per added string: 0.2-0.9 M tree edges and 0.4-2.3 s on one core at 4
/// machines and 10 strings (BM_ExactSearch).  max_evaluations caps the work
/// on larger instances.  Its value is as ground truth: it sandwiches the
/// heuristics (heuristic <= exact <= LP bound) in tests and ablations.

#pragma once

#include <cstddef>

#include "core/allocator.hpp"

namespace tsce::core {

struct ExactSearchOptions {
  /// Hard cap on tree edges (string commits); the best-so-far is returned
  /// when exhausted.
  std::size_t max_evaluations = 2'000'000;
  /// Worker threads (1 runs inline with no pool, 0 uses
  /// std::thread::hardware_concurrency()).  The top level of the tree splits
  /// into one subtree task per first string, each with its own incumbent
  /// and a max_evaluations/Q budget slice, folded best-of in branch index
  /// order — byte-identical at any thread count.
  std::size_t threads = 1;
};

/// Branch-and-bound over orderings: a depth-first enumeration in
/// lexicographic order that
/// - stops a prefix as soon as its decode fails (every completion of a
///   failing prefix decodes to the same partial allocation, because the
///   sequential decode stops at the first infeasible string);
/// - prunes a prefix whose best completion cannot beat the incumbent
///   lexicographically: worth so far plus every remaining string's, and
///   slackness no higher than the prefix's; when every remaining string must
///   deploy to tie the incumbent's worth, no higher than one minus a level
///   the most loaded machine must reach (water-filling the remaining
///   strings' least utilization, or the largest remaining app);
/// - runs the branch of orderings that start with string 0 first, and
///   prunes the other branches against its optimum as well.
/// A tie never replaces the incumbent (nor, in the fold, an earlier branch),
/// so without a binding budget the result is the first optimum in
/// lexicographic order, as a plain enumeration of every permutation would
/// find it.
class ExactPermutationSearch final : public Allocator {
 public:
  explicit ExactPermutationSearch(ExactSearchOptions options = {})
      : options_(options) {}

  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "Exact"; }

 private:
  ExactSearchOptions options_;
};

}  // namespace tsce::core

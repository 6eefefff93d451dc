/// \file psg.hpp
/// Permutation Space GENITOR-based heuristic (PSG) and its seeded variant
/// (paper §5).
///
/// Chromosomes are orderings of the string set; a chromosome is projected
/// into the solution space by the IMR-based sequential decoder.  The
/// GENITOR-specific operators work on the TOP part of the chromosome: a
/// random cut point splits each parent, and the strings of one parent's top
/// part are reordered to match their relative positions in the other parent.
/// Operating on the top part matters for partial allocations — strings in the
/// bottom part may be unmapped, so reordering there would not change the
/// projected solution.  Mutation swaps two randomly chosen strings.

#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "core/evaluator.hpp"
#include "genitor/genitor.hpp"

namespace tsce::core {

struct PsgOptions {
  genitor::Config ga;  ///< paper defaults: 250 / bias 1.6 / 5000 / 300
  /// Independent restarts; the best of all trials is reported (the paper uses
  /// four trials per run for the evolutionary algorithms).
  std::size_t trials = 4;
  /// Worker threads for batch chromosome evaluation (initial populations);
  /// 1 = serial, 0 = hardware concurrency.  Results are identical at any
  /// thread count (the BatchEvaluator determinism contract).
  std::size_t eval_threads = 1;
};

/// GENITOR problem adapter for the permutation space.  Owns the evaluation
/// engine: every evaluate() goes through a long-lived DecodeContext (prefix
/// reuse and the decisive-prefix memo, no per-candidate allocation), and
/// evaluate_batch() fans initial populations out across the BatchEvaluator's
/// workers.  The operators are static: they depend only on the chromosomes
/// and the rng, so other permutation problems share them.
class PermutationProblem {
 public:
  using Chromosome = std::vector<model::StringId>;
  using Fitness = analysis::Fitness;

  explicit PermutationProblem(const model::SystemModel& model,
                              std::size_t eval_threads = 1)
      : model_(&model), evaluator_(model, eval_threads) {}

  [[nodiscard]] Fitness evaluate(const Chromosome& order) const;
  [[nodiscard]] std::vector<Fitness> evaluate_batch(
      std::span<const Chromosome> batch) const;
  /// Full decode of \p order (allocation included) on worker 0's context;
  /// bit-identical to decode_order.
  [[nodiscard]] DecodeResult decode(const Chromosome& order) const;
  /// Top-part crossover at a random cut point in [1, size-1].
  [[nodiscard]] static std::pair<Chromosome, Chromosome> crossover(
      const Chromosome& a, const Chromosome& b, util::Rng& rng);
  /// Swaps two distinct, randomly chosen positions.
  [[nodiscard]] static Chromosome mutate(const Chromosome& c, util::Rng& rng);
  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const;

  /// Reorders the first \p cut entries of \p receiver so they appear in the
  /// relative order they hold in \p pattern (the paper's crossover step).
  [[nodiscard]] static Chromosome reorder_top(const Chromosome& receiver,
                                              const Chromosome& pattern,
                                              std::size_t cut);

 private:
  const model::SystemModel* model_;
  mutable BatchEvaluator evaluator_;
};

class Psg : public Allocator {
 public:
  explicit Psg(PsgOptions options = {}) : options_(options) {}

  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "PSG"; }

 protected:
  /// Seeds injected into every trial's initial population; the base PSG has
  /// none.
  [[nodiscard]] virtual std::vector<std::vector<model::StringId>> seeds(
      const model::SystemModel& model) const {
    (void)model;
    return {};
  }

 private:
  PsgOptions options_;
};

/// PSG whose initial population includes the MWF and TF orderings.
class SeededPsg final : public Psg {
 public:
  explicit SeededPsg(PsgOptions options = {}) : Psg(options) {}
  [[nodiscard]] std::string name() const override { return "Seeded PSG"; }

 protected:
  [[nodiscard]] std::vector<std::vector<model::StringId>> seeds(
      const model::SystemModel& model) const override;
};

/// PSG seeded with MWF, TF, and the LP-guided ordering (lp_guided_order):
/// strings ranked by the fractional relaxation's deployed fractions, so the
/// population starts next to the LP optimum's support.
class LpSeededPsg final : public Psg {
 public:
  explicit LpSeededPsg(PsgOptions options = {}) : Psg(options) {}
  [[nodiscard]] std::string name() const override { return "LP-Seeded PSG"; }

 protected:
  [[nodiscard]] std::vector<std::vector<model::StringId>> seeds(
      const model::SystemModel& model) const override;
};

}  // namespace tsce::core

/// \file baselines.hpp
/// Comparison baselines that are not part of the paper's reported heuristics:
///
/// * RandomOrder — a single random permutation decoded through the IMR; shows
///   how much the MWF/TF rankings and the PSG search each buy.
/// * SolutionSpaceGa — a genetic algorithm operating directly on
///   application-to-machine assignments.  The paper reports that such a GA
///   "failed to find any feasible allocation even for a relatively small set
///   of strings in a reasonable amount of time" (§5); this implementation
///   reproduces that negative result (bench E9).

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/allocator.hpp"
#include "genitor/genitor.hpp"

namespace tsce::core {

class RandomOrder final : public Allocator {
 public:
  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "RandomOrder"; }
};

/// GENITOR problem over raw assignments.  The chromosome holds one machine id
/// per application (all strings flattened).  Decoding deploys strings in
/// index order, skipping any whose commit fails the two-stage analysis.
class AssignmentProblem {
 public:
  using Chromosome = std::vector<model::MachineId>;
  using Fitness = analysis::Fitness;

  explicit AssignmentProblem(const model::SystemModel& model);

  [[nodiscard]] Fitness evaluate(const Chromosome& genes) const;
  [[nodiscard]] std::pair<Chromosome, Chromosome> crossover(const Chromosome& a,
                                                            const Chromosome& b,
                                                            util::Rng& rng) const;
  [[nodiscard]] Chromosome mutate(const Chromosome& c, util::Rng& rng) const;
  [[nodiscard]] Chromosome random_chromosome(util::Rng& rng) const;

  /// Deploys the chromosome and returns the full result (used for the final
  /// report, not during search).
  [[nodiscard]] AllocatorResult project(const Chromosome& genes) const;

  [[nodiscard]] std::size_t genome_length() const noexcept { return total_apps_; }

 private:
  const model::SystemModel* model_;
  std::size_t total_apps_;
  std::vector<std::size_t> offset_;  ///< first gene of each string
};

struct SolutionSpaceGaOptions {
  genitor::Config ga{.population_size = 250,
                     .bias = 1.6,
                     .max_iterations = 5000,
                     .stagnation_limit = 300};
};

class SolutionSpaceGa final : public Allocator {
 public:
  explicit SolutionSpaceGa(SolutionSpaceGaOptions options = {})
      : options_(options) {}

  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "SolutionSpaceGA"; }

 private:
  SolutionSpaceGaOptions options_;
};

}  // namespace tsce::core

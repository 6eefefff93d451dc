/// \file local_search.hpp
/// Permutation-space search baselines beyond GENITOR: steepest-descent hill
/// climbing with random restarts and simulated annealing.  Both use the same
/// swap neighborhood as the PSG mutation operator and the same IMR decode,
/// so differences isolate the search strategy itself (ablation bench E11).

#pragma once

#include <cstddef>

#include "core/allocator.hpp"

namespace tsce::core {

struct HillClimbOptions {
  /// Total decode-evaluation budget across the four random restarts
  /// (0 = unlimited), split evenly across them.  Every restart decodes at
  /// least once, so a budget below four runs that many restarts.
  std::size_t max_evaluations = 0;
};

/// First-improvement hill climbing over string orderings with the swap
/// neighborhood, from four random restarts run one after another; the best
/// local optimum wins.
class HillClimb final : public Allocator {
 public:
  explicit HillClimb(HillClimbOptions options = {}) : options_(options) {}

  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "HillClimb"; }

 private:
  HillClimbOptions options_;
};

struct AnnealingOptions {
  /// Total Metropolis steps, split evenly across the replicas, so the
  /// decode-evaluation budget is the same at any replica count.
  std::size_t iterations = 2000;
  /// Replicas on the geometric temperature ladder (replica r starts at
  /// 10% of the available worth times 1.7^r and cools by 0.998 per step);
  /// adjacent replicas may exchange states every 64 steps.  0 and 1 both run
  /// a single chain (no exchanges).
  std::size_t replicas = 4;
  /// Worker threads for the replicas (1 runs inline with no pool, 0 uses
  /// std::thread::hardware_concurrency(); workers cap at the replica count).
  /// Replica r derives its rng stream from its index (util::Rng::stream),
  /// exchanges draw from a dedicated stream at deterministic barriers, and
  /// the fold is by replica index, so the result is byte-identical at any
  /// thread count.
  std::size_t threads = 1;
};

/// Simulated annealing over string orderings.  The acceptance energy is the
/// lexicographic fitness flattened to worth + slackness (slackness in [0,1]
/// can never outweigh a 1-unit worth difference).  The engine is
/// deterministic parallel tempering (see AnnealingOptions and DESIGN.md §10).
class SimulatedAnnealing final : public Allocator {
 public:
  explicit SimulatedAnnealing(AnnealingOptions options = {}) : options_(options) {}

  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "Annealing"; }

 private:
  AnnealingOptions options_;
};

}  // namespace tsce::core

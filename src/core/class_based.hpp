/// \file class_based.hpp
/// The alternate worth scheme sketched in §4: when high-worth strings are
/// worth more than *any* number of lower-worth strings, they form a special
/// class that is allocated first; only then are the lower classes considered
/// (the scheme of Kim et al. [25], outside the paper's main requirements but
/// implemented here as an extension).
///
/// ClassBasedAllocator partitions the strings into worth classes (high=100,
/// medium=10, low=1), runs one inner GENITOR search *within* each class in
/// descending class order, and freezes each class's deployment before moving
/// on.  Compared with the flat PSG, this guarantees class-priority at the
/// cost of global ordering freedom (ablation bench E12).

#pragma once

#include <memory>

#include "core/allocator.hpp"
#include "core/psg.hpp"

namespace tsce::core {

struct ClassBasedOptions {
  /// Budget of the inner per-class GENITOR search.
  genitor::Config ga{.population_size = 40,
                     .bias = 1.6,
                     .max_iterations = 200,
                     .stagnation_limit = 100};
};

class ClassBasedAllocator final : public Allocator {
 public:
  explicit ClassBasedAllocator(ClassBasedOptions options = {}) : options_(options) {}

  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "ClassBased"; }

 private:
  ClassBasedOptions options_;
};

}  // namespace tsce::core

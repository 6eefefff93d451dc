/// \file ordered.hpp
/// The single-pass ordering heuristics: Most Worth First and Tightest First
/// (paper §5).  Both sort the strings by a ranking criterion and decode that
/// single ordering through the IMR with per-string feasibility checks.

#pragma once

#include <vector>

#include "core/allocator.hpp"

namespace tsce::core {

/// Strings ranked by descending worth I[k]; ties by ascending string id.
[[nodiscard]] std::vector<model::StringId> mwf_order(const model::SystemModel& model);

/// Strings ranked by descending approximate relative tightness (eq. 4 with
/// allocation-dependent terms replaced by averages); ties by ascending id.
[[nodiscard]] std::vector<model::StringId> tf_order(const model::SystemModel& model);

/// Strings ranked by descending \p fractions (one per string), each rounded
/// to a multiple of 1e-9 so that LP rounding noise ties; ties by descending
/// worth then ascending id.  Throws std::invalid_argument unless there is
/// exactly one fraction per string.
[[nodiscard]] std::vector<model::StringId> fraction_order(
    const model::SystemModel& model, const std::vector<double>& fractions);

/// Strings ranked by the fractional-mapping LP relaxation (upper_bound.hpp):
/// fraction_order of the deployed fractions f_k.  Strings the LP deploys
/// fully are exactly the ones an optimal integral allocation is most likely
/// to keep, so decoding them first gives the sequential IMR decoder a head
/// start.  Falls back to mwf_order when the LP
/// does not reach optimality (iteration limit on adversarial instances).
[[nodiscard]] std::vector<model::StringId> lp_guided_order(
    const model::SystemModel& model);

class MostWorthFirst final : public Allocator {
 public:
  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "MWF"; }
};

class TightestFirst final : public Allocator {
 public:
  [[nodiscard]] AllocatorResult allocate(const model::SystemModel& model,
                                         util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "TF"; }
};

}  // namespace tsce::core

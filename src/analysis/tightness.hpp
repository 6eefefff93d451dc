/// \file tightness.hpp
/// Relative tightness T[k], eq. (4), and its allocation-independent
/// approximation used by the Tightest-First heuristic (paper §5).
///
/// Local schedulers prioritize applications and transfers of relatively
/// tighter strings (higher T).  The paper assumes distinct T values; we break
/// exact ties deterministically by string id so priorities form a strict
/// total order regardless.

#pragma once

#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::analysis {

/// Exact relative tightness of a fully mapped string k: total no-sharing
/// processing + transfer time on the assigned resources divided by Lmax[k].
[[nodiscard]] double relative_tightness(const model::SystemModel& model,
                                        const model::Allocation& alloc,
                                        model::StringId k) noexcept;

/// Allocation-free approximation: per-app average nominal execution time
/// (eq. 8) and average inverse bandwidth replace the assigned-resource terms.
[[nodiscard]] double approx_tightness(const model::SystemModel& model,
                                      model::StringId k) noexcept;

/// Strict priority order between deployed strings z and k given their
/// tightness values: higher T wins; exact ties broken by lower string id.
// The exact compare is the contract: equal tightness values tie, and the tie
// goes to the lower string id.  A tolerance would make the order
// intransitive, so this site stays outside the -Werror=float-equal gate.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
[[nodiscard]] constexpr bool higher_priority(double t_z, model::StringId z, double t_k,
                                             model::StringId k) noexcept {
  if (t_z != t_k) return t_z > t_k;
  return z < k;
}
#pragma GCC diagnostic pop

}  // namespace tsce::analysis

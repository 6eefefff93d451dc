/// \file metrics.hpp
/// The two-component performance metric (paper §4): total worth of feasibly
/// deployed strings (primary) and system slackness (secondary), compared
/// lexicographically.

#pragma once

#include <bit>
#include <compare>
#include <cstdint>

#include "model/allocation.hpp"
#include "model/dag.hpp"
#include "model/system_model.hpp"

namespace tsce::analysis {

struct Fitness {
  int total_worth = 0;
  double slackness = 0.0;

  /// Lexicographic: worth dominates, slackness breaks ties.
  friend constexpr std::partial_ordering operator<=>(const Fitness& a,
                                                     const Fitness& b) noexcept {
    if (a.total_worth != b.total_worth) {
      return a.total_worth <=> b.total_worth;
    }
    return a.slackness <=> b.slackness;
  }
  /// Equality is bit-exact on the slackness double (the determinism
  /// auditor's convention): two fitnesses are "the same result" only when a
  /// replay would serialize identically, so -0.0 != +0.0 here on purpose.
  friend constexpr bool operator==(const Fitness& a, const Fitness& b) noexcept {
    return a.total_worth == b.total_worth &&
           std::bit_cast<std::uint64_t>(a.slackness) ==
               std::bit_cast<std::uint64_t>(b.slackness);
  }
};

/// Sum of worth factors over deployed strings.  The heuristic pipeline only
/// marks strings deployed after they pass the two-stage analysis, so this is
/// the paper's "total worth".
[[nodiscard]] int total_worth(const model::SystemModel& model,
                              const model::Allocation& alloc) noexcept;

/// Total worth and system slackness Lambda, eq. (7), from scratch
/// (estimates.hpp's loads).
[[nodiscard]] Fitness evaluate(const dag::DagSystemModel& model,
                               const model::Allocation& alloc);

/// The same for linear strings, analyzed as path graphs.
[[nodiscard]] inline Fitness evaluate(const model::SystemModel& model,
                                      const model::Allocation& alloc) {
  return evaluate(dag::lift(model), alloc);
}

}  // namespace tsce::analysis

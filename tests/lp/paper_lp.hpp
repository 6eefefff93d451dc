/// \file paper_lp.hpp
/// Test-only oracle: the paper's §7 fractional-mapping LP exactly as written,
/// constraints (a)–(g) over both the app-placement fractions x[i,k,j] and the
/// route fractions y[i,k,j1,j2].  The library builds the arc-flow projection
/// of this LP (lp/upper_bound.hpp); the property tests check that both have
/// the same optimum, and tests/lp/pivot_path_test.cpp pins the simplex pivot
/// path on LPs built here.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/problem.hpp"
#include "lp/upper_bound.hpp"
#include "model/system_model.hpp"

namespace tsce::lp {

/// Column layout of the paper-literal LP: per string, its L*M x columns
/// (app-major), then its (L-1)*M*M y columns (edge, source, destination
/// machine); the slackness variable lambda, in complete mode, comes last.
class PaperLpIndexer {
 public:
  explicit PaperLpIndexer(const model::SystemModel& model);

  [[nodiscard]] std::int32_t x(std::size_t k, std::size_t i, std::size_t j) const noexcept {
    return x_base_[k] + static_cast<std::int32_t>(i * m_ + j);
  }
  [[nodiscard]] std::int32_t y(std::size_t k, std::size_t i, std::size_t j1,
                               std::size_t j2) const noexcept {
    return y_base_[k] + static_cast<std::int32_t>(i * m_ * m_ + j1 * m_ + j2);
  }
  /// Number of x and y columns (lambda excluded).
  [[nodiscard]] std::int32_t count() const noexcept { return total_; }

 private:
  std::size_t m_;
  std::vector<std::int32_t> x_base_;
  std::vector<std::int32_t> y_base_;
  std::int32_t total_ = 0;
};

/// Builds the paper-literal LP.  Row layout: (a) Q deployment rows,
/// (b) equal-fraction rows, (d)/(e) flow rows per edge, (f) M machine rows,
/// then the M(M-1) route rows (g) when any string has an inter-app edge.
[[nodiscard]] LpProblem build_paper_upper_bound_lp(const model::SystemModel& model,
                                                   bool complete, UbObjective objective);

}  // namespace tsce::lp

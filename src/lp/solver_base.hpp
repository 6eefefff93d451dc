/// \file solver_base.hpp
/// Internal to the LP module: the computational form and engine-independent
/// state shared by the revised simplex in simplex.cpp and the dense
/// cross-check oracle in tests/lp.  Not part of the public API.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace tsce::lp::detail {

using VarStatus = VarState;

/// Computational form and engine-independent simplex state: structural
/// columns, then one slack per row, then (during phase 1) artificials.
class SolverBase {
 protected:
  SolverBase(const LpProblem& problem, const SimplexOptions& options)
      : options_(options),
        m_(problem.num_rows()),
        n_struct_(problem.num_variables()) {
    const std::size_t n_total = n_struct_ + m_;
    lower_.reserve(n_total);
    upper_.reserve(n_total);
    cost_.reserve(n_total);
    for (std::size_t v = 0; v < n_struct_; ++v) {
      lower_.push_back(problem.lower(static_cast<std::int32_t>(v)));
      upper_.push_back(problem.upper(static_cast<std::int32_t>(v)));
      const double c = problem.cost(static_cast<std::int32_t>(v));
      cost_.push_back(problem.sense() == Sense::kMaximize ? -c : c);
    }
    rhs_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      rhs_[r] = problem.rhs(static_cast<std::int32_t>(r));
      switch (problem.relation(static_cast<std::int32_t>(r))) {
        case Relation::kLessEqual:
          lower_.push_back(0.0);
          upper_.push_back(kInf);
          break;
        case Relation::kGreaterEqual:
          lower_.push_back(-kInf);
          upper_.push_back(0.0);
          break;
        case Relation::kEqual:
          lower_.push_back(0.0);
          upper_.push_back(0.0);
          break;
      }
      cost_.push_back(0.0);
    }

    // Assemble A = [structural | I] in CSC.
    std::vector<Triplet> triplets = problem.triplets();
    triplets.reserve(triplets.size() + m_);
    for (std::size_t r = 0; r < m_; ++r) {
      triplets.push_back({static_cast<std::int32_t>(r),
                          static_cast<std::int32_t>(n_struct_ + r), 1.0});
    }
    a_ = CscMatrix::from_triplets(m_, n_total, triplets);
  }

  static double finite_or(double v, double fallback) noexcept {
    return std::isfinite(v) ? v : fallback;
  }

  /// Nonbasic resting value of variable j.
  [[nodiscard]] double nonbasic_value(std::size_t j) const noexcept {
    if (vstat_[j] == VarStatus::kAtUpper) return finite_or(upper_[j], 0.0);
    return finite_or(lower_[j], 0.0);
  }

  /// Rowless problem: each variable sits at its cheaper bound.
  [[nodiscard]] LpSolution bound_only(Sense sense) const {
    LpSolution solution;
    solution.status = SolveStatus::kOptimal;
    solution.x.resize(n_struct_);
    for (std::size_t v = 0; v < n_struct_; ++v) {
      solution.x[v] = cost_[v] >= 0 ? finite_or(lower_[v], 0.0)
                                    : finite_or(upper_[v], 0.0);
      if (cost_[v] < 0 && upper_[v] == kInf) {
        solution.status = SolveStatus::kUnbounded;
        return solution;
      }
    }
    solution.objective = objective_of(solution.x, sense);
    return solution;
  }

  /// Default nonbasic statuses plus the all-slack basis.
  void set_slack_basis() {
    const std::size_t n_total = a_.cols;
    vstat_.assign(n_total, VarStatus::kAtLower);
    for (std::size_t j = 0; j < n_total; ++j) {
      if (!std::isfinite(lower_[j]) && std::isfinite(upper_[j])) {
        vstat_[j] = VarStatus::kAtUpper;
      }
    }
    basis_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t slack = n_struct_ + r;
      basis_[r] = static_cast<std::int32_t>(slack);
      vstat_[slack] = VarStatus::kBasic;
    }
  }

  [[nodiscard]] bool needs_phase1() const noexcept {
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      if (xb_[i] < lower_[b] - kFeasibilityTol ||
          xb_[i] > upper_[b] + kFeasibilityTol) {
        return true;
      }
    }
    return false;
  }

  /// For every bound-violating basic slack, clamp the slack to its nearest
  /// bound (making it nonbasic) and install an artificial column that absorbs
  /// the residual with a positive basic value.  Phase 1 minimizes the sum of
  /// artificials.  Callers must be at the slack basis (the ±1 artificial
  /// column relies on row i of the tableau being row i of A).  Returns the
  /// (row, sign) of every installed artificial so the engine can patch its
  /// factorisation.
  std::vector<std::pair<std::size_t, double>> build_artificials() {
    saved_cost_ = cost_;
    std::fill(cost_.begin(), cost_.end(), 0.0);

    std::vector<std::pair<std::size_t, double>> installed;
    std::vector<Triplet> extra;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      double violation = 0.0;
      if (xb_[i] < lower_[b] - kFeasibilityTol) {
        violation = xb_[i] - lower_[b];  // negative
      } else if (xb_[i] > upper_[b] + kFeasibilityTol) {
        violation = xb_[i] - upper_[b];  // positive
      } else {
        continue;
      }
      // Clamp the old basic variable to the violated bound.
      vstat_[b] = violation < 0.0 ? VarStatus::kAtLower : VarStatus::kAtUpper;
      const double sign = violation < 0.0 ? -1.0 : 1.0;
      const std::size_t art = lower_.size();
      lower_.push_back(0.0);
      upper_.push_back(kInf);
      cost_.push_back(1.0);
      saved_cost_.push_back(0.0);
      vstat_.push_back(VarStatus::kBasic);
      extra.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(art),
                       sign});
      basis_[i] = static_cast<std::int32_t>(art);
      installed.emplace_back(i, sign);
    }

    // Rebuild A with the artificial columns appended.
    std::vector<Triplet> triplets;
    triplets.reserve(a_.value.size() + extra.size());
    for (std::size_t c = 0; c < a_.cols; ++c) {
      for (std::int64_t p = a_.col_start[c]; p < a_.col_start[c + 1]; ++p) {
        triplets.push_back({a_.row_index[p], static_cast<std::int32_t>(c),
                            a_.value[p]});
      }
    }
    triplets.insert(triplets.end(), extra.begin(), extra.end());
    a_ = CscMatrix::from_triplets(m_, lower_.size(), triplets);
    return installed;
  }

  [[nodiscard]] double phase1_objective() const noexcept {
    double obj = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      obj += cost_[b] * xb_[i];
    }
    return obj;
  }

  /// Fixes artificials at zero and restores the real objective.
  void seal_artificials() {
    for (std::size_t j = n_struct_ + m_; j < lower_.size(); ++j) {
      upper_[j] = 0.0;
    }
    cost_ = saved_cost_;
  }

  [[nodiscard]] std::vector<double> extract_structurals() const {
    std::vector<double> x(n_struct_);
    for (std::size_t v = 0; v < n_struct_; ++v) {
      x[v] = vstat_[v] == VarStatus::kBasic ? 0.0 : nonbasic_value(v);
    }
    for (std::size_t i = 0; i < m_; ++i) {
      const auto b = static_cast<std::size_t>(basis_[i]);
      if (b < n_struct_) x[b] = xb_[i];
    }
    return x;
  }

  [[nodiscard]] double objective_of(const std::vector<double>& x,
                                    Sense sense) const noexcept {
    // cost_ holds the minimize-sense coefficients; undo the negation so the
    // value is reported in the problem's own sense.
    double obj = 0.0;
    for (std::size_t v = 0; v < n_struct_; ++v) {
      obj += (sense == Sense::kMaximize ? -cost_[v] : cost_[v]) * x[v];
    }
    return obj;
  }

  /// Snapshot of the structural+slack statuses, empty when a (degenerate)
  /// basic artificial makes the snapshot non-restartable.
  [[nodiscard]] SimplexBasis export_basis() const {
    SimplexBasis out;
    const std::size_t n_real = n_struct_ + m_;
    out.status.resize(n_real);
    std::size_t basics = 0;
    for (std::size_t j = 0; j < n_real; ++j) {
      out.status[j] = vstat_[j];
      if (vstat_[j] == VarStatus::kBasic) ++basics;
    }
    if (basics != m_) out.status.clear();
    return out;
  }

  SimplexOptions options_;
  std::size_t m_;
  std::size_t n_struct_;
  CscMatrix a_;
  std::vector<double> lower_, upper_, cost_, saved_cost_;
  std::vector<double> rhs_;
  std::vector<std::int32_t> basis_;
  std::vector<VarStatus> vstat_;
  std::vector<double> xb_;
  std::size_t iterations_ = 0;
  std::size_t max_iterations_ = 0;
};

}  // namespace tsce::lp::detail

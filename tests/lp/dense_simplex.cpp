#include "lp/dense_simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/solver_base.hpp"

namespace tsce::lp {
namespace {

using detail::SolverBase;
using detail::VarStatus;

class DenseSolver : private SolverBase {
 public:
  DenseSolver(const LpProblem& problem, const SimplexOptions& options)
      : SolverBase(problem, options) {}

  LpSolution run(Sense sense) {
    LpSolution solution;
    if (m_ == 0) return bound_only(sense);

    initialize_basis();
    max_iterations_ = options_.max_iterations != 0
                          ? options_.max_iterations
                          : 50 * (m_ + a_.cols) + 10000;

    if (needs_phase1()) {
      const auto installed = build_artificials();
      // The basis matrix became diag(±1); keep the explicit inverse exact.
      for (const auto& rs : installed) binv_[rs.first * m_ + rs.first] = rs.second;
      compute_basic_values();
      const SolveStatus phase1 = iterate();
      solution.phase1_iterations = iterations_;
      if (phase1 == SolveStatus::kIterationLimit) {
        solution.status = phase1;
        return solution;
      }
      if (phase1_objective() > 1e-6) {
        solution.status = SolveStatus::kInfeasible;
        return solution;
      }
      seal_artificials();
    }

    const SolveStatus status = iterate();
    solution.status = status;
    solution.iterations = iterations_;
    solution.x = extract_structurals();
    solution.objective = objective_of(solution.x, sense);
    if (status == SolveStatus::kOptimal) {
      solution.row_duals = extract_row_duals(sense);
      solution.basis = export_basis();
    }
    return solution;
  }

 private:
  void initialize_basis() {
    set_slack_basis();
    binv_.assign(m_ * m_, 0.0);
    for (std::size_t r = 0; r < m_; ++r) binv_[r * m_ + r] = 1.0;
    compute_basic_values();
  }

  /// xB = B^-1 (rhs - sum over nonbasic j of A_j * x_j).
  void compute_basic_values() {
    std::vector<double> residual = rhs_;
    for (std::size_t j = 0; j < a_.cols; ++j) {
      if (vstat_[j] == VarStatus::kBasic) continue;
      const double xj = nonbasic_value(j);
      if (xj == 0.0) continue;
      for (std::int64_t p = a_.col_start[j]; p < a_.col_start[j + 1]; ++p) {
        residual[static_cast<std::size_t>(a_.row_index[p])] -= a_.value[p] * xj;
      }
    }
    xb_.assign(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double* row = &binv_[i * m_];
      double acc = 0.0;
      for (std::size_t r = 0; r < m_; ++r) acc += row[r] * residual[r];
      xb_[i] = acc;
    }
  }

  SolveStatus iterate() {
    std::size_t degenerate_run = 0;
    std::vector<double> y(m_);
    std::vector<double> w(m_);
    for (; iterations_ < max_iterations_; ++iterations_) {
      const bool bland = degenerate_run >= options_.degeneracy_limit;

      // y = cB^T B^-1 (skip zero-cost basics: most of them in phase 2).
      std::fill(y.begin(), y.end(), 0.0);
      for (std::size_t i = 0; i < m_; ++i) {
        const double cb = cost_[static_cast<std::size_t>(basis_[i])];
        if (cb == 0.0) continue;
        const double* row = &binv_[i * m_];
        for (std::size_t r = 0; r < m_; ++r) y[r] += cb * row[r];
      }

      // Pricing: entering column with the most attractive reduced cost.
      std::ptrdiff_t enter = -1;
      double best_score = kOptimalityTol;
      int enter_dir = 0;
      for (std::size_t j = 0; j < a_.cols; ++j) {
        if (vstat_[j] == VarStatus::kBasic) continue;
        if (lower_[j] == upper_[j]) continue;  // fixed variable
        double d = cost_[j];
        for (std::int64_t p = a_.col_start[j]; p < a_.col_start[j + 1]; ++p) {
          d -= y[static_cast<std::size_t>(a_.row_index[p])] * a_.value[p];
        }
        int dir = 0;
        double score = 0.0;
        if (vstat_[j] == VarStatus::kAtLower && d < -kOptimalityTol) {
          dir = +1;
          score = -d;
        } else if (vstat_[j] == VarStatus::kAtUpper && d > kOptimalityTol) {
          dir = -1;
          score = d;
        } else {
          continue;
        }
        if (bland) {  // first eligible index
          enter = static_cast<std::ptrdiff_t>(j);
          enter_dir = dir;
          break;
        }
        if (score > best_score) {
          best_score = score;
          enter = static_cast<std::ptrdiff_t>(j);
          enter_dir = dir;
        }
      }
      if (enter < 0) return SolveStatus::kOptimal;
      const auto j_enter = static_cast<std::size_t>(enter);
      const double sigma = enter_dir;

      // w = B^-1 A_j.
      std::fill(w.begin(), w.end(), 0.0);
      for (std::int64_t p = a_.col_start[j_enter]; p < a_.col_start[j_enter + 1];
           ++p) {
        const auto r = static_cast<std::size_t>(a_.row_index[p]);
        const double v = a_.value[p];
        for (std::size_t i = 0; i < m_; ++i) w[i] += binv_[i * m_ + r] * v;
      }

      // Ratio test.  Entering moves t >= 0 in direction sigma; basics change
      // as xB_i -= t * sigma * w_i.
      const double span = upper_[j_enter] - lower_[j_enter];
      double t_limit = span;  // bound flip
      std::ptrdiff_t leave_row = -1;
      double leave_pivot = 0.0;
      int leave_to_upper = 0;
      for (std::size_t i = 0; i < m_; ++i) {
        const double rate = sigma * w[i];
        if (std::abs(rate) <= kPivotTol) continue;
        const auto b = static_cast<std::size_t>(basis_[i]);
        double ratio;
        int hits_upper;
        if (rate > 0.0) {  // basic decreases toward its lower bound
          if (!std::isfinite(lower_[b])) continue;
          ratio = (xb_[i] - lower_[b]) / rate;
          hits_upper = 0;
        } else {  // basic increases toward its upper bound
          if (!std::isfinite(upper_[b])) continue;
          ratio = (xb_[i] - upper_[b]) / rate;
          hits_upper = 1;
        }
        if (ratio < 0.0) ratio = 0.0;  // bound already (numerically) tight
        if (ratio < t_limit - 1e-12) {
          t_limit = ratio;
          leave_row = static_cast<std::ptrdiff_t>(i);
          leave_pivot = w[i];
          leave_to_upper = hits_upper;
        } else if (ratio <= t_limit + 1e-12) {
          // Tie: prefer the larger pivot for numerical stability, or the
          // lowest variable index under Bland's anti-cycling rule.
          const bool prefer =
              leave_row < 0 ||
              (bland ? basis_[i] < basis_[static_cast<std::size_t>(leave_row)]
                     : std::abs(w[i]) > std::abs(leave_pivot));
          if (prefer) {
            t_limit = std::min(t_limit, ratio);
            leave_row = static_cast<std::ptrdiff_t>(i);
            leave_pivot = w[i];
            leave_to_upper = hits_upper;
          }
        }
      }

      if (!std::isfinite(t_limit)) return SolveStatus::kUnbounded;
      degenerate_run = t_limit <= kPivotTol ? degenerate_run + 1 : 0;

      if (leave_row < 0) {
        // Bound flip: the entering variable traverses its whole range.
        for (std::size_t i = 0; i < m_; ++i) xb_[i] -= t_limit * sigma * w[i];
        vstat_[j_enter] = vstat_[j_enter] == VarStatus::kAtLower
                              ? VarStatus::kAtUpper
                              : VarStatus::kAtLower;
        continue;
      }

      // Pivot: entering becomes basic in leave_row.
      const auto r = static_cast<std::size_t>(leave_row);
      const auto b_leave = static_cast<std::size_t>(basis_[r]);
      const double enter_start = nonbasic_value(j_enter);
      for (std::size_t i = 0; i < m_; ++i) xb_[i] -= t_limit * sigma * w[i];
      const double enter_value = enter_start + sigma * t_limit;

      vstat_[b_leave] = leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      vstat_[j_enter] = VarStatus::kBasic;
      basis_[r] = static_cast<std::int32_t>(j_enter);
      xb_[r] = enter_value;

      // Product-form update of B^-1: pivot row r on w_r.
      const double pivot = leave_pivot;
      double* row_r = &binv_[r * m_];
      const double inv_pivot = 1.0 / pivot;
      for (std::size_t cidx = 0; cidx < m_; ++cidx) row_r[cidx] *= inv_pivot;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == r) continue;
        const double factor = w[i];
        if (factor == 0.0) continue;
        double* row_i = &binv_[i * m_];
        for (std::size_t cidx = 0; cidx < m_; ++cidx) {
          row_i[cidx] -= factor * row_r[cidx];
        }
      }
    }
    return SolveStatus::kIterationLimit;
  }

  /// y = cB^T B^-1 at the final basis, converted to the problem's own sense
  /// (duals of a maximize problem are the negated minimize-form duals).
  [[nodiscard]] std::vector<double> extract_row_duals(Sense sense) const {
    std::vector<double> y(m_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost_[static_cast<std::size_t>(basis_[i])];
      if (cb == 0.0) continue;
      const double* row = &binv_[i * m_];
      for (std::size_t r = 0; r < m_; ++r) y[r] += cb * row[r];
    }
    if (sense == Sense::kMaximize) {
      for (double& v : y) v = -v;
    }
    return y;
  }

  std::vector<double> binv_;  // row-major m x m
};

}  // namespace

LpSolution solve_dense(const LpProblem& problem, SimplexOptions options) {
  DenseSolver solver(problem, options);
  return solver.run(problem.sense());
}

}  // namespace tsce::lp

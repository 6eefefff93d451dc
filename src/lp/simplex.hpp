/// \file simplex.hpp
/// Bounded-variable two-phase revised simplex.
///
/// This solver replaces the commercial package (Lingo 9.0) the paper used for
/// its upper-bound computation (§7).  Constraints are stored in CSC/CSR form;
/// the basis is held as a Markowitz-pivot LU factorisation (sparse_lu.hpp)
/// with product-form eta updates, refactorised every `refactor_interval`
/// pivots or when the FTRAN/BTRAN pivot cross-check drifts.  FTRAN/BTRAN
/// visit only the elimination steps a sparse rhs can reach, in heap order.
/// Devex pricing runs over incrementally maintained reduced costs
/// (recomputed exactly at every refactorisation; optimality is only
/// declared from exact ones) and a cache of d²/γ scores: a pivot rescores
/// only the columns it changed (the pivot row's nonzeros, the leaving and
/// entering columns), and the choice reads per-block score maxima instead
/// of all n columns.  Per-iteration work scales with the nonzeros a pivot
/// touches instead of m or n, which is what lets the upper-bound LP run at
/// paper scale (≈17k rows) and at fleet scale (hundreds of machines,
/// thousands of strings).  A dense explicit-inverse engine over the same
/// computational form (lp/solver_base.hpp) lives in the tests as the
/// cross-check oracle (tests/lp/sparse_dense_property_test.cpp), and
/// tests/lp/pivot_path_test.cpp pins the pivot path bit for bit.
///
/// Computational form: every row r becomes a_r^T x + s_r = rhs_r with a
/// slack bounded by the row relation ([0,inf) for <=, (-inf,0] for >=, [0,0]
/// for =).  The slack basis is the starting point; when it is
/// bound-infeasible, a phase-1 LP with artificial columns drives the
/// infeasibility to zero first.  Degenerate runs switch pricing to Bland's
/// rule, guaranteeing termination.  Duals/shadow prices are exact at
/// optimality.  The solver is deterministic: a fixed input yields a
/// bit-identical solution path (index-ordered scans, deterministic
/// tie-breaks, no randomisation).

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lp/problem.hpp"

namespace tsce::lp {

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

[[nodiscard]] const char* to_string(SolveStatus status) noexcept;

/// Per-variable basis role in the computational form's column order:
/// structural variables first, then one slack per row.
enum class VarState : std::uint8_t { kBasic, kAtLower, kAtUpper };

/// A restartable basis snapshot: one VarState per computational-form column
/// (num_variables + num_rows entries, exactly num_rows of them kBasic).
/// Returned in LpSolution::basis at optimality and accepted back through
/// SimplexOptions::basis_warm_start.
struct SimplexBasis {
  std::vector<VarState> status;

  [[nodiscard]] bool empty() const noexcept { return status.empty(); }
};

/// Dual feasibility (reduced cost) tolerance.
inline constexpr double kOptimalityTol = 1e-7;
/// Smallest acceptable pivot magnitude.
inline constexpr double kPivotTol = 1e-9;
/// Primal feasibility tolerance (bound violations).
inline constexpr double kFeasibilityTol = 1e-7;

struct SimplexOptions {
  /// Hard cap across both phases; 0 means 50*(m+n) adaptive.
  std::size_t max_iterations = 0;
  /// Consecutive degenerate iterations before switching to Bland's rule.
  std::size_t degeneracy_limit = 200;
  /// Eta-file length that forces a refactorisation.
  std::size_t refactor_interval = 64;
  /// Relative FTRAN-vs-BTRAN pivot disagreement that forces an early
  /// refactorisation (and a retry of the iteration).
  double drift_tol = 1e-7;
  /// Optional starting basis.  Must match the problem's shape and be primal
  /// feasible after factorisation; otherwise the solver silently falls back
  /// to the slack basis, so a stale snapshot can never produce a wrong
  /// answer — re-solves of a perturbed problem (the what-if service path)
  /// just lose the speedup.
  /// The pointed-to basis must outlive the solve() call.
  const SimplexBasis* basis_warm_start = nullptr;
};

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective in the problem's own sense (max problems report the max).
  double objective = 0.0;
  /// Values of the structural variables.
  std::vector<double> x;
  /// Shadow price per row in the problem's own sense: the marginal change of
  /// the optimal objective per unit of right-hand side (only meaningful at
  /// kOptimal; zero for non-binding rows).
  std::vector<double> row_duals;
  std::size_t iterations = 0;
  std::size_t phase1_iterations = 0;
  /// Number of basis (re)factorisations performed.
  std::size_t refactorisations = 0;
  /// Final basis at kOptimal (empty otherwise, and empty when a basic
  /// artificial survives a degenerate phase 1); feed back through
  /// SimplexOptions::basis_warm_start to hot-start a related solve.
  SimplexBasis basis;
};

/// Solves \p problem; deterministic for a fixed input.
[[nodiscard]] LpSolution solve(const LpProblem& problem, SimplexOptions options = {});

}  // namespace tsce::lp

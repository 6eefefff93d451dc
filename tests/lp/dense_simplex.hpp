/// \file dense_simplex.hpp
/// Test-only LP oracle: a dense bounded-variable revised simplex with an
/// explicit row-major basis inverse, product-form updates and Dantzig
/// pricing — O(m²) memory and per-iteration work.  It shares only the
/// computational form (lp/solver_base.hpp) with the library's sparse engine,
/// so the property tests can cross-check lp::solve against an independently
/// implemented pivoting core.

#pragma once

#include "lp/problem.hpp"
#include "lp/simplex.hpp"

namespace tsce::lp {

/// Solves \p problem with the dense oracle.  Ignores the sparse-only options
/// (refactor_interval, drift_tol, basis_warm_start); reports no
/// refactorisations and records no LP telemetry.
[[nodiscard]] LpSolution solve_dense(const LpProblem& problem,
                                     SimplexOptions options = {});

}  // namespace tsce::lp

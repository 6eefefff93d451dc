#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lp/dense_simplex.hpp"
#include "lp/simplex.hpp"
#include "lp/upper_bound.hpp"
#include "model/system_model.hpp"
#include "util/rng.hpp"

namespace tsce::lp {
namespace {

/// Random bounded LP in the shape the upper-bound builder emits: variables in
/// [0, 1] (a few with wider or one-sided bounds), mixed <= / = / >= rows,
/// moderately sparse coefficients.
LpProblem random_bounded_lp(util::Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(2, 14));
  const auto rows = static_cast<std::size_t>(rng.uniform_int(1, 10));
  LpProblem p(rng.uniform() < 0.5 ? Sense::kMaximize : Sense::kMinimize);
  for (std::size_t v = 0; v < n; ++v) {
    double lo = 0.0, hi = 1.0;
    const double shape = rng.uniform();
    if (shape < 0.15) {
      lo = rng.uniform(-2.0, 0.0);
      hi = lo + rng.uniform(0.0, 3.0);
    } else if (shape < 0.25) {
      hi = kInf;  // one-sided
    }
    (void)p.add_variable(lo, hi, rng.uniform(-5.0, 5.0));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double pick = rng.uniform();
    const Relation rel = pick < 0.6   ? Relation::kLessEqual
                         : pick < 0.8 ? Relation::kGreaterEqual
                                      : Relation::kEqual;
    // Keep equality rhs small so feasible instances stay common.
    const double rhs = rel == Relation::kEqual ? rng.uniform(0.0, 2.0)
                                               : rng.uniform(-1.0, 6.0);
    const auto row = p.add_row(rel, rhs);
    std::size_t nnz = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (rng.uniform() < 0.4) {
        p.add_coefficient(row, static_cast<std::int32_t>(v), rng.uniform(-2.0, 2.0));
        ++nnz;
      }
    }
    if (nnz == 0) {
      p.add_coefficient(row, static_cast<std::int32_t>(rng.bounded(n)),
                        rng.uniform(0.5, 2.0));
    }
  }
  return p;
}

/// The dense oracle (dense_simplex.hpp) is implemented independently of the
/// library's sparse engine: on every random instance both must agree on the status and (when optimal) on the
/// objective to 1e-6.
class SparseVsDense : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseVsDense, SameStatusAndObjective) {
  util::Rng rng(GetParam());
  for (int instance = 0; instance < 8; ++instance) {
    const LpProblem p = random_bounded_lp(rng);
    const LpSolution sparse = solve(p);
    const LpSolution dense = solve_dense(p);
    ASSERT_EQ(sparse.status, dense.status)
        << "instance " << instance << ": sparse=" << to_string(sparse.status)
        << " dense=" << to_string(dense.status);
    if (sparse.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << "instance " << instance;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, SparseVsDense,
                         ::testing::Range<std::uint64_t>(1, 31));

TEST(SparseVsDense, AgreeOnInfeasible) {
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 10.0, 1.0);
  const auto r1 = p.add_row(Relation::kLessEqual, 1.0);
  p.add_coefficient(r1, x, 1.0);
  const auto r2 = p.add_row(Relation::kGreaterEqual, 2.0);
  p.add_coefficient(r2, x, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kInfeasible);
  EXPECT_EQ(solve_dense(p).status, SolveStatus::kInfeasible);
}

TEST(SparseVsDense, AgreeOnUnbounded) {
  LpProblem p(Sense::kMaximize);
  (void)p.add_variable(0.0, kInf, 1.0);
  const auto y = p.add_variable(0.0, kInf, 0.0);
  const auto r = p.add_row(Relation::kLessEqual, 1.0);
  p.add_coefficient(r, y, 1.0);
  EXPECT_EQ(solve(p).status, SolveStatus::kUnbounded);
  EXPECT_EQ(solve_dense(p).status, SolveStatus::kUnbounded);
}

TEST(SparseVsDense, AgreeOnDegenerateOptimum) {
  // Redundant constraints make the optimal vertex degenerate.
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, kInf, 1.0);
  const auto y = p.add_variable(0.0, kInf, 1.0);
  for (const auto& [cx, cy, b] : {std::tuple{1.0, 1.0, 4.0},
                                  {1.0, 0.0, 2.0},
                                  {0.0, 1.0, 2.0},
                                  {2.0, 2.0, 8.0}}) {
    const auto r = p.add_row(Relation::kLessEqual, b);
    p.add_coefficient(r, x, cx);
    p.add_coefficient(r, y, cy);
  }
  const LpSolution sparse = solve(p);
  const LpSolution dense = solve_dense(p);
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sparse.objective, 4.0, 1e-8);
  EXPECT_NEAR(dense.objective, 4.0, 1e-8);
}

TEST(SparseVsDense, RowDualsAgreeAtOptimality) {
  util::Rng rng(1234);
  for (int instance = 0; instance < 20; ++instance) {
    const LpProblem p = random_bounded_lp(rng);
    const LpSolution sparse = solve(p);
    const LpSolution dense = solve_dense(p);
    ASSERT_EQ(sparse.status, dense.status);
    if (sparse.status != SolveStatus::kOptimal) continue;
    // Duals can differ at degenerate vertices (multiple optimal bases), so
    // compare the dual objective implied by the duals instead of each entry:
    // both must price the rhs identically when the primal optimum is unique,
    // and must at least be internally consistent otherwise.  Weak check:
    // complementary slackness direction — non-binding rows priced ~0 is
    // already covered by the engines' own invariants; here assert sizes.
    ASSERT_EQ(sparse.row_duals.size(), p.num_rows());
    ASSERT_EQ(dense.row_duals.size(), p.num_rows());
  }
}

TEST(SparseSimplex, DeterministicSolutionPath) {
  util::Rng rng(99);
  const LpProblem p = random_bounded_lp(rng);
  const LpSolution a = solve(p);
  const LpSolution b = solve(p);
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.refactorisations, b.refactorisations);
  EXPECT_EQ(a.objective, b.objective);  // bit-identical, not just near
  EXPECT_EQ(a.x, b.x);
}

TEST(SparseSimplex, RefactorIntervalTriggersRefactorisations) {
  // An assignment LP needs enough pivots that interval=2 must refactorise
  // several times; interval=1000 should get by on the initial factorisations.
  LpProblem p(Sense::kMinimize);
  const int n = 6;
  util::Rng rng(5);
  std::vector<std::vector<std::int32_t>> v(n, std::vector<std::int32_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      v[i][j] = p.add_variable(0.0, 1.0, rng.uniform(0.0, 10.0));
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto r = p.add_row(Relation::kEqual, 1.0);
    for (int j = 0; j < n; ++j) p.add_coefficient(r, v[i][j], 1.0);
  }
  for (int j = 0; j < n; ++j) {
    const auto r = p.add_row(Relation::kEqual, 1.0);
    for (int i = 0; i < n; ++i) p.add_coefficient(r, v[i][j], 1.0);
  }

  SimplexOptions tight;
  tight.refactor_interval = 2;
  const LpSolution frequent = solve(p, tight);
  SimplexOptions loose;
  loose.refactor_interval = 1000;
  const LpSolution rare = solve(p, loose);

  ASSERT_EQ(frequent.status, SolveStatus::kOptimal);
  ASSERT_EQ(rare.status, SolveStatus::kOptimal);
  EXPECT_NEAR(frequent.objective, rare.objective, 1e-8);
  ASSERT_GT(frequent.iterations, 2u);  // the trigger had a chance to fire
  EXPECT_GT(frequent.refactorisations, rare.refactorisations);
  // interval=2: at least one refactorisation per two pivots beyond the
  // phase boundaries.
  EXPECT_GE(frequent.refactorisations, frequent.iterations / 2);
}

TEST(SparseSimplex, ZeroDriftToleranceForcesEagerRefactorisation) {
  // drift_tol = 0 makes any FTRAN/BTRAN disagreement (even rounding noise)
  // trigger the drift path: refactorise, retry the iteration, and still land
  // on the optimum.  This exercises the drift branch deterministically.
  LpProblem p(Sense::kMaximize);
  util::Rng rng(11);
  const int n = 8;
  for (int i = 0; i < n; ++i) (void)p.add_variable(0.0, 1.0, rng.uniform(1.0, 10.0));
  for (int r = 0; r < 4; ++r) {
    const auto row = p.add_row(Relation::kLessEqual, rng.uniform(1.0, 3.0));
    for (int i = 0; i < n; ++i) {
      p.add_coefficient(row, i, rng.uniform(0.1, 2.0));
    }
  }
  SimplexOptions options;
  options.drift_tol = 0.0;
  const LpSolution eager = solve(p, options);
  const LpSolution normal = solve(p);
  ASSERT_EQ(eager.status, SolveStatus::kOptimal);
  ASSERT_EQ(normal.status, SolveStatus::kOptimal);
  EXPECT_NEAR(eager.objective, normal.objective, 1e-8);
  EXPECT_GE(eager.refactorisations, normal.refactorisations);
}

TEST(SparseSimplex, WarmStartFromOwnBasisSolvesInZeroIterations) {
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 2.0, 3.0);
  const auto y = p.add_variable(0.0, 3.0, 2.0);
  const auto r = p.add_row(Relation::kLessEqual, 4.0);
  p.add_coefficient(r, x, 1.0);
  p.add_coefficient(r, y, 1.0);
  const LpSolution cold = solve(p);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_FALSE(cold.basis.empty());
  ASSERT_EQ(cold.basis.status.size(), p.num_variables() + p.num_rows());

  SimplexOptions warm;
  warm.basis_warm_start = &cold.basis;
  const LpSolution hot = solve(p, warm);
  ASSERT_EQ(hot.status, SolveStatus::kOptimal);
  EXPECT_NEAR(hot.objective, cold.objective, 1e-10);
  EXPECT_EQ(hot.iterations, 0u);
}

TEST(SparseSimplex, WarmStartSpeedsUpPerturbedResolve) {
  util::Rng rng(17);
  LpProblem base = random_bounded_lp(rng);
  LpSolution cold = solve(base);
  while (cold.status != SolveStatus::kOptimal || cold.iterations == 0) {
    base = random_bounded_lp(rng);
    cold = solve(base);
  }

  // Same structure, slightly perturbed costs: the old basis is a legal
  // starting point and the re-solve must reach the perturbed optimum.
  LpProblem bumped(base.sense());
  for (std::size_t v = 0; v < base.num_variables(); ++v) {
    const auto vi = static_cast<std::int32_t>(v);
    (void)bumped.add_variable(base.lower(vi), base.upper(vi),
                              base.cost(vi) * 1.0001);
  }
  for (std::size_t r = 0; r < base.num_rows(); ++r) {
    const auto ri = static_cast<std::int32_t>(r);
    (void)bumped.add_row(base.relation(ri), base.rhs(ri));
  }
  for (const auto& t : base.triplets()) bumped.add_coefficient(t.row, t.col, t.value);

  SimplexOptions warm;
  warm.basis_warm_start = &cold.basis;
  const LpSolution hot = solve(bumped, warm);
  const LpSolution scratch = solve(bumped);
  ASSERT_EQ(hot.status, scratch.status);
  if (hot.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(hot.objective, scratch.objective, 1e-7);
    EXPECT_LE(hot.iterations, scratch.iterations);
  }
}

TEST(SparseSimplex, MismatchedWarmStartFallsBackToColdSolve) {
  LpProblem p(Sense::kMaximize);
  const auto x = p.add_variable(0.0, 2.0, 3.0);
  const auto r = p.add_row(Relation::kLessEqual, 4.0);
  p.add_coefficient(r, x, 1.0);

  SimplexBasis wrong_shape;
  wrong_shape.status.assign(17, VarState::kAtLower);  // wrong size entirely
  SimplexOptions options;
  options.basis_warm_start = &wrong_shape;
  const LpSolution sol = solve(p, options);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 6.0, 1e-8);
}

TEST(UpperBoundSolver, ReusedSolverMatchesOneShotFunctions) {
  model::SystemModelBuilder b(3);
  b.uniform_bandwidth(8.0);
  for (int k = 0; k < 5; ++k) {
    b.begin_string(10.0, 100.0,
                   k % 2 == 0 ? model::Worth::kHigh : model::Worth::kLow);
    b.add_app(1.0, 0.4, 0.2);
    b.add_app(1.0, 0.3, 0.0);
  }
  const model::SystemModel m = b.build();

  UpperBoundSolver solver;
  const UpperBoundResult once = upper_bound_worth(m);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const UpperBoundResult reused = solver.worth(m);
    ASSERT_EQ(reused.status, once.status);
    EXPECT_EQ(reused.value, once.value);  // identical problem, identical path
    EXPECT_EQ(reused.iterations, once.iterations);
  }
}

}  // namespace
}  // namespace tsce::lp

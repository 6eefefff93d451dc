// Property: the library's arc-flow upper-bound LP is the exact projection of
// the paper's (a)–(g) LP onto the route fractions.  On random instances of
// every scenario, plus a single-app model (no route rows), in worth and
// slackness mode and under both objectives:
//
// * both LPs reach the same status and the same optimum (1e-9 relative);
// * the paper's x, rebuilt from the arc solution's flows, together with the
//   arc solution's y satisfies every (a)–(g) row and bound of the paper LP
//   (1e-7), and scores the arc optimum under the paper LP's objective;
// * for single-app models both builders emit the same LP.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "lp/paper_lp.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "lp/upper_bound.hpp"
#include "model/system_model.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace tsce::lp {
namespace {

using model::SystemModel;

enum class Shape { kHighlyLoaded, kQosLimited, kLightlyLoaded, kSingleApp };

SystemModel random_model(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  const workload::Scenario scenario = shape == Shape::kQosLimited
                                          ? workload::Scenario::kQosLimited
                                      : shape == Shape::kLightlyLoaded
                                          ? workload::Scenario::kLightlyLoaded
                                          : workload::Scenario::kHighlyLoaded;
  auto config = workload::GeneratorConfig::for_scenario(scenario);
  config.num_machines = static_cast<std::size_t>(rng.uniform_int(2, 5));
  config.num_strings = static_cast<std::size_t>(rng.uniform_int(3, 10));
  config.max_apps_per_string = shape == Shape::kSingleApp ? 1 : 5;
  return workload::generate(config, rng);
}

/// Maps an arc-flow solution onto the paper LP's columns (PaperLpIndexer):
/// app 0's fraction on j is edge 0's out-flow from j, app i >= 1's is edge
/// i-1's in-flow to j.  Arc columns follow build_upper_bound_lp's layout.
std::vector<double> paper_point(const SystemModel& model, const std::vector<double>& arc,
                                bool complete) {
  const std::size_t m = model.num_machines();
  const PaperLpIndexer paper(model);
  std::vector<double> v(static_cast<std::size_t>(paper.count()) + (complete ? 1 : 0), 0.0);
  std::size_t base = 0;  // first arc-form column of string k
  for (std::size_t k = 0; k < model.num_strings(); ++k) {
    const std::size_t len = model.strings[k].size();
    if (len == 1) {
      for (std::size_t j = 0; j < m; ++j) {
        v[static_cast<std::size_t>(paper.x(k, 0, j))] = arc[base + j];
      }
      base += m;
      continue;
    }
    auto y = [&](std::size_t i, std::size_t j1, std::size_t j2) {
      return arc[base + i * m * m + j1 * m + j2];
    };
    for (std::size_t i = 0; i + 1 < len; ++i) {
      for (std::size_t j1 = 0; j1 < m; ++j1) {
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          const double flow = y(i, j1, j2);
          v[static_cast<std::size_t>(paper.y(k, i, j1, j2))] = flow;
          if (i == 0) v[static_cast<std::size_t>(paper.x(k, 0, j1))] += flow;
          v[static_cast<std::size_t>(paper.x(k, i + 1, j2))] += flow;
        }
      }
    }
    base += (len > 0 ? len - 1 : 0) * m * m;
  }
  EXPECT_EQ(base + (complete ? 1 : 0), arc.size());
  if (complete) v.back() = arc.back();  // lambda
  return v;
}

/// Largest violation of \p problem's rows and bounds at point \p v.
double max_violation(const LpProblem& problem, const std::vector<double>& v) {
  std::vector<double> activity(problem.num_rows(), 0.0);
  for (const Triplet& t : problem.triplets()) {
    activity[static_cast<std::size_t>(t.row)] += t.value * v[static_cast<std::size_t>(t.col)];
  }
  double worst = 0.0;
  for (std::size_t r = 0; r < problem.num_rows(); ++r) {
    const auto row = static_cast<std::int32_t>(r);
    const double gap = activity[r] - problem.rhs(row);
    switch (problem.relation(row)) {
      case Relation::kLessEqual: worst = std::max(worst, gap); break;
      case Relation::kGreaterEqual: worst = std::max(worst, -gap); break;
      case Relation::kEqual: worst = std::max(worst, std::abs(gap)); break;
    }
  }
  for (std::size_t c = 0; c < problem.num_variables(); ++c) {
    const auto col = static_cast<std::int32_t>(c);
    worst = std::max({worst, problem.lower(col) - v[c], v[c] - problem.upper(col)});
  }
  return worst;
}

double objective_at(const LpProblem& problem, const std::vector<double>& v) {
  double sum = 0.0;
  for (std::size_t c = 0; c < problem.num_variables(); ++c) {
    sum += problem.cost(static_cast<std::int32_t>(c)) * v[c];
  }
  return sum;
}

/// Same columns, rows and coefficients, in the same order.
bool same_problem(const LpProblem& a, const LpProblem& b) {
  if (a.num_variables() != b.num_variables() || a.num_rows() != b.num_rows() ||
      a.num_nonzeros() != b.num_nonzeros()) {
    return false;
  }
  for (std::size_t c = 0; c < a.num_variables(); ++c) {
    const auto col = static_cast<std::int32_t>(c);
    if (a.lower(col) != b.lower(col) || a.upper(col) != b.upper(col) ||
        a.cost(col) != b.cost(col)) {
      return false;
    }
  }
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    const auto row = static_cast<std::int32_t>(r);
    if (a.relation(row) != b.relation(row) || a.rhs(row) != b.rhs(row)) return false;
  }
  for (std::size_t t = 0; t < a.num_nonzeros(); ++t) {
    const Triplet& x = a.triplets()[t];
    const Triplet& y = b.triplets()[t];
    if (x.row != y.row || x.col != y.col || x.value != y.value) return false;
  }
  return true;
}

bool near_relative(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max(1.0, std::abs(b));
}

struct Case {
  Shape shape;
  std::uint64_t seed;
};

std::string case_name(const Case& c) {
  static const char* const kNames[] = {"s1", "s2", "s3", "single_app"};
  return std::string(kNames[static_cast<int>(c.shape)]) + "_" + std::to_string(c.seed);
}

void PrintTo(const Case& c, std::ostream* os) { *os << case_name(c); }

class ArcFlowEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(ArcFlowEquivalence, MatchesPaperLp) {
  const Case& c = GetParam();
  const SystemModel model = random_model(c.shape, c.seed);
  for (const bool complete : {false, true}) {
    for (const UbObjective objective :
         {UbObjective::kTotalWorth, UbObjective::kPaperLiteral}) {
      SCOPED_TRACE(::testing::Message()
                   << (complete ? "slackness" : "worth") << ", "
                   << (objective == UbObjective::kTotalWorth ? "total worth"
                                                             : "paper literal"));
      const LpProblem paper = build_paper_upper_bound_lp(model, complete, objective);
      const LpProblem arc = build_upper_bound_lp(model, complete, objective);
      EXPECT_LE(arc.num_rows(), paper.num_rows());
      // Without edges there is nothing to project: the fleet-shaped LP is
      // the paper's, column for column.
      if (c.shape == Shape::kSingleApp) {
        EXPECT_TRUE(same_problem(arc, paper));
      }
      const LpSolution paper_sol = solve(paper);
      const LpSolution arc_sol = solve(arc);
      ASSERT_EQ(arc_sol.status, paper_sol.status);
      if (arc_sol.status != SolveStatus::kOptimal) continue;
      EXPECT_TRUE(near_relative(arc_sol.objective, paper_sol.objective, 1e-9))
          << arc_sol.objective << " vs " << paper_sol.objective;

      const std::vector<double> point = paper_point(model, arc_sol.x, complete);
      EXPECT_LE(max_violation(paper, point), 1e-7);
      EXPECT_TRUE(near_relative(objective_at(paper, point), arc_sol.objective, 1e-9));

      // The reported bound: lambda, or the worth sum_k I[k] f_k (which the
      // total-worth objective maximises directly).
      UpperBoundOptions options;
      options.objective = objective;
      const UpperBoundResult ub = complete ? upper_bound_slackness(model, options)
                                           : upper_bound_worth(model, options);
      ASSERT_EQ(ub.status, SolveStatus::kOptimal);
      if (complete || objective == UbObjective::kTotalWorth) {
        EXPECT_TRUE(near_relative(ub.value, paper_sol.objective, 1e-9))
            << ub.value << " vs " << paper_sol.objective;
      }
      for (const double f : ub.string_fractions) {
        EXPECT_GE(f, -1e-9);
        EXPECT_LE(f, 1.0 + 1e-9);
      }
    }
  }
}

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const Shape shape : {Shape::kHighlyLoaded, Shape::kQosLimited,
                            Shape::kLightlyLoaded, Shape::kSingleApp}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) out.push_back({shape, seed});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ArcFlowEquivalence,
                         ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return case_name(info.param);
                         });

}  // namespace
}  // namespace tsce::lp

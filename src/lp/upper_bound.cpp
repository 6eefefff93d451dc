#include "lp/upper_bound.hpp"

#include <cassert>

namespace tsce::lp {

using model::SystemModel;

namespace {

[[nodiscard]] std::size_t edges_of(const model::AppString& s) noexcept {
  return s.size() > 0 ? s.size() - 1 : 0;
}

/// Column bookkeeping for the arc-flow LP.  A string with at least one edge
/// owns its arc variables y[i,k,j1,j2] (edge, source, destination machine);
/// a single-app string owns its M placement columns x[k,j].  Either way the
/// columns whose sum is the deployed fraction f_k (edge 0's arcs, or the
/// placements) are the string's first fraction_width(k) columns.
class ArcIndexer {
 public:
  explicit ArcIndexer(const SystemModel& model) : m_(model.num_machines()) {
    base_.reserve(model.num_strings() + 1);
    width_.reserve(model.num_strings());
    std::int32_t next = 0;
    for (const auto& s : model.strings) {
      base_.push_back(next);
      width_.push_back(static_cast<std::int32_t>(
          s.size() == 0 ? 0 : (s.size() == 1 ? m_ : m_ * m_)));
      next += static_cast<std::int32_t>(s.size() == 1 ? m_ : edges_of(s) * m_ * m_);
    }
    base_.push_back(next);
  }

  [[nodiscard]] std::int32_t x(std::size_t k, std::size_t j) const noexcept {
    return base_[k] + static_cast<std::int32_t>(j);
  }
  [[nodiscard]] std::int32_t y(std::size_t k, std::size_t i, std::size_t j1,
                               std::size_t j2) const noexcept {
    return base_[k] + static_cast<std::int32_t>(i * m_ * m_ + j1 * m_ + j2);
  }
  [[nodiscard]] std::int32_t first(std::size_t k) const noexcept { return base_[k]; }
  [[nodiscard]] std::int32_t fraction_width(std::size_t k) const noexcept {
    return width_[k];
  }
  [[nodiscard]] std::int32_t count() const noexcept { return base_.back(); }

 private:
  std::size_t m_;
  std::vector<std::int32_t> base_;   ///< first column per string, then the total
  std::vector<std::int32_t> width_;  ///< columns summing to f_k per string
};

}  // namespace

std::size_t upper_bound_route_rows(const SystemModel& model) {
  const std::size_t m = model.num_machines();
  for (const auto& s : model.strings) {
    if (s.size() > 1) return m * (m - 1);
  }
  return 0;
}

void build_upper_bound_lp_into(LpProblem& problem, const SystemModel& model,
                               bool complete, UbObjective objective) {
  const std::size_t m = model.num_machines();
  const std::size_t q = model.num_strings();
  const ArcIndexer idx(model);

  problem.clear(Sense::kMaximize);
  std::int32_t lambda = -1;  // slackness variable, complete mode only

  // Variables, with the objective coefficients attached at creation.  Worth
  // accrues on f_k: edge 0's arcs, or a single-app string's placements.
  // The paper-literal objective sums I[k] * x[i,k,j] over apps and machines,
  // which is I[k] * |S^k| * f_k.  Arcs need no upper bound: (a) caps the
  // total flow of every edge at 1.  Layout must match ArcIndexer.
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    double worth = complete ? 0.0 : static_cast<double>(s.worth_factor());
    if (objective == UbObjective::kPaperLiteral) worth *= static_cast<double>(s.size());
    if (s.size() == 1) {
      for (std::size_t j = 0; j < m; ++j) {
        const std::int32_t v = problem.add_variable(0.0, 1.0, worth);
        assert(v == idx.x(k, j));
        (void)v;
      }
      continue;
    }
    for (std::size_t i = 0; i < edges_of(s); ++i) {
      for (std::size_t j1 = 0; j1 < m; ++j1) {
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          const std::int32_t v = problem.add_variable(0.0, kInf, i == 0 ? worth : 0.0);
          assert(v == idx.y(k, i, j1, j2));
          (void)v;
        }
      }
    }
  }
  assert(problem.num_variables() == static_cast<std::size_t>(idx.count()));
  if (complete) {
    lambda = problem.add_variable(0.0, 1.0, 1.0);  // maximize slackness
  }

  // (a) deployment fraction of each string.
  for (std::size_t k = 0; k < q; ++k) {
    const std::int32_t row =
        problem.add_row(complete ? Relation::kEqual : Relation::kLessEqual, 1.0);
    for (std::int32_t c = 0; c < idx.fraction_width(k); ++c) {
      problem.add_coefficient(row, idx.first(k) + c, 1.0);
    }
  }

  // Flow conservation at every internal application: the fraction that edge
  // i-1 delivers to machine j is the fraction that edge i sends from it,
  //     sum_{j1} y[i-1,k,j1,j] = sum_{j2} y[i,k,j,j2].
  // Together with (a) this is the paper's (b), (d) and (e) with x projected
  // out: x[i,k,j] is edge i's out-flow from j, or edge i-1's in-flow to j.
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    for (std::size_t i = 1; i < edges_of(s); ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        const std::int32_t row = problem.add_row(Relation::kEqual, 0.0);
        for (std::size_t j1 = 0; j1 < m; ++j1) {
          problem.add_coefficient(row, idx.y(k, i - 1, j1, j), 1.0);
        }
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          problem.add_coefficient(row, idx.y(k, i, j, j2), -1.0);
        }
      }
    }
  }

  // (f) machine capacity: sum of per-app utilization contributions <= 1
  //     (<= 1 - lambda in complete mode).  App 0's fraction on j is edge 0's
  //     out-flow from j; app i >= 1's is edge i-1's in-flow to j.
  for (std::size_t j = 0; j < m; ++j) {
    const std::int32_t row = problem.add_row(Relation::kLessEqual, 1.0);
    for (std::size_t k = 0; k < q; ++k) {
      const auto& s = model.strings[k];
      if (s.size() == 1) {
        problem.add_coefficient(row, idx.x(k, j), s.apps[0].cpu_work(j) / s.period_s);
        continue;
      }
      for (std::size_t i = 0; i < s.size(); ++i) {
        const double coeff = s.apps[i].cpu_work(j) / s.period_s;
        for (std::size_t other = 0; other < m; ++other) {
          problem.add_coefficient(
              row, i == 0 ? idx.y(k, 0, j, other) : idx.y(k, i - 1, other, j), coeff);
        }
      }
    }
    if (complete) problem.add_coefficient(row, lambda, 1.0);
  }

  // (g) route capacity.  Without any inter-app edge there are no arc
  // variables and every route row would be empty (or carry only the
  // redundant lambda <= 1, already enforced by lambda's bounds) — skip the
  // whole M(M-1) block.  Fleet-scale single-app workloads (the TDM-client
  // shape) are exactly this case.
  if (upper_bound_route_rows(model) > 0) {
    for (std::size_t j1 = 0; j1 < m; ++j1) {
      for (std::size_t j2 = 0; j2 < m; ++j2) {
        if (j1 == j2) continue;  // infinite intra-machine bandwidth
        const std::int32_t row = problem.add_row(Relation::kLessEqual, 1.0);
        const double w = model.network.bandwidth_mbps(static_cast<model::MachineId>(j1),
                                                      static_cast<model::MachineId>(j2));
        for (std::size_t k = 0; k < q; ++k) {
          const auto& s = model.strings[k];
          for (std::size_t i = 0; i < edges_of(s); ++i) {
            const double coeff =
                model::kbytes_to_megabits(s.apps[i].output_kbytes) / s.period_s / w;
            problem.add_coefficient(row, idx.y(k, i, j1, j2), coeff);
          }
        }
        if (complete) problem.add_coefficient(row, lambda, 1.0);
      }
    }
  }
}

LpProblem build_upper_bound_lp(const SystemModel& model, bool complete,
                               UbObjective objective) {
  LpProblem problem(Sense::kMaximize);
  build_upper_bound_lp_into(problem, model, complete, objective);
  return problem;
}

namespace {

UpperBoundResult extract_result(const LpProblem& problem,
                                const LpSolution& solution,
                                const SystemModel& model, bool complete) {
  UpperBoundResult result;
  result.status = solution.status;
  result.lp_rows = problem.num_rows();
  result.lp_cols = problem.num_variables();
  result.iterations = solution.iterations;
  result.refactorisations = solution.refactorisations;
  if (solution.status != SolveStatus::kOptimal) return result;

  // Rows were appended in the order (a), flow conservation, (f), (g): the machine
  // capacity rows start right before the M + route_rows tail (route_rows is
  // zero when the (g) block was omitted — see build_upper_bound_lp).
  {
    const std::size_t m = model.num_machines();
    const std::size_t route_rows = upper_bound_route_rows(model);
    const std::size_t machine_rows_start = problem.num_rows() - m - route_rows;
    result.machine_shadow_price.assign(m, 0.0);
    result.route_shadow_price.assign(m * m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      result.machine_shadow_price[j] = solution.row_duals[machine_rows_start + j];
    }
    if (route_rows > 0) {
      std::size_t row = machine_rows_start + m;
      for (std::size_t j1 = 0; j1 < m; ++j1) {
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          if (j1 == j2) continue;
          result.route_shadow_price[j1 * m + j2] = solution.row_duals[row++];
        }
      }
    }
  }

  if (complete) {
    // Objective is lambda itself.
    result.value = solution.objective;
  } else {
    // Report total worth as sum I[k] * f_k regardless of the LP objective so
    // the number is comparable with the heuristics.
    const ArcIndexer idx(model);
    result.string_fractions.resize(model.num_strings(), 0.0);
    double worth = 0.0;
    for (std::size_t k = 0; k < model.num_strings(); ++k) {
      double f = 0.0;
      for (std::int32_t c = 0; c < idx.fraction_width(k); ++c) {
        f += solution.x[static_cast<std::size_t>(idx.first(k) + c)];
      }
      result.string_fractions[k] = f;
      worth += model.strings[k].worth_factor() * f;
    }
    result.value = worth;
  }
  return result;
}

UpperBoundResult run(const SystemModel& model, bool complete,
                     const UpperBoundOptions& options) {
  const LpProblem problem =
      build_upper_bound_lp(model, complete, options.objective);
  const LpSolution solution = solve(problem, options.simplex);
  return extract_result(problem, solution, model, complete);
}

}  // namespace

UpperBoundResult upper_bound_worth(const SystemModel& model,
                                   UpperBoundOptions options) {
  return run(model, /*complete=*/false, options);
}

UpperBoundResult upper_bound_slackness(const SystemModel& model,
                                       UpperBoundOptions options) {
  return run(model, /*complete=*/true, options);
}

UpperBoundResult UpperBoundSolver::run_reusable(const SystemModel& model,
                                                bool complete) {
  build_upper_bound_lp_into(problem_, model, complete, options_.objective);
  const LpSolution solution = solve(problem_, options_.simplex);
  return extract_result(problem_, solution, model, complete);
}

UpperBoundResult UpperBoundSolver::worth(const SystemModel& model) {
  return run_reusable(model, /*complete=*/false);
}

UpperBoundResult UpperBoundSolver::slackness(const SystemModel& model) {
  return run_reusable(model, /*complete=*/true);
}

}  // namespace tsce::lp

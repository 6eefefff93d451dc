#include "lp/paper_lp.hpp"

#include <cassert>

namespace tsce::lp {

using model::SystemModel;

PaperLpIndexer::PaperLpIndexer(const SystemModel& model) : m_(model.num_machines()) {
  x_base_.reserve(model.num_strings());
  y_base_.reserve(model.num_strings());
  std::int32_t next = 0;
  for (const auto& s : model.strings) {
    x_base_.push_back(next);
    next += static_cast<std::int32_t>(s.size() * m_);
    y_base_.push_back(next);
    const std::size_t edges = s.size() > 0 ? s.size() - 1 : 0;
    next += static_cast<std::int32_t>(edges * m_ * m_);
  }
  total_ = next;
}

LpProblem build_paper_upper_bound_lp(const SystemModel& model, bool complete,
                                     UbObjective objective) {
  const std::size_t m = model.num_machines();
  const std::size_t q = model.num_strings();
  const PaperLpIndexer idx(model);

  LpProblem problem(Sense::kMaximize);
  std::int32_t lambda = -1;  // slackness variable, complete mode only

  // Variables: all fractions in [0,1], with the objective coefficients
  // attached at creation.  Layout must match PaperLpIndexer (asserted below).
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    const double worth = s.worth_factor();
    for (std::size_t i = 0; i < s.size(); ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        double cost = 0.0;
        if (!complete) {
          if (objective == UbObjective::kPaperLiteral) {
            cost = worth;
          } else if (i == 0) {
            // f_k = sum_j x[0,k,j]; worth accrues once per string.
            cost = worth;
          }
        }
        const std::int32_t v = problem.add_variable(0.0, 1.0, cost);
        assert(v == idx.x(k, i, j));
        (void)v;
      }
    }
    const std::size_t edges = s.size() > 0 ? s.size() - 1 : 0;
    for (std::size_t i = 0; i < edges; ++i) {
      for (std::size_t j1 = 0; j1 < m; ++j1) {
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          const std::int32_t v = problem.add_variable(0.0, 1.0, 0.0);
          assert(v == idx.y(k, i, j1, j2));
          (void)v;
        }
      }
    }
  }
  if (complete) {
    lambda = problem.add_variable(0.0, 1.0, 1.0);  // maximize slackness
  }

  // (a) deployment fraction of each string, via its first application.
  for (std::size_t k = 0; k < q; ++k) {
    const std::int32_t row =
        problem.add_row(complete ? Relation::kEqual : Relation::kLessEqual, 1.0);
    for (std::size_t j = 0; j < m; ++j) {
      problem.add_coefficient(row, idx.x(k, 0, j), 1.0);
    }
  }

  // (b) equal fractions along each string.
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    for (std::size_t i = 1; i < s.size(); ++i) {
      const std::int32_t row = problem.add_row(Relation::kEqual, 0.0);
      for (std::size_t j = 0; j < m; ++j) {
        problem.add_coefficient(row, idx.x(k, i, j), 1.0);
        problem.add_coefficient(row, idx.x(k, 0, j), -1.0);
      }
    }
  }

  // (d) an application fraction on j1 emits the same fraction of its output:
  //     sum_{j2} y[i,k,j1,j2] = x[i,k,j1].
  // (e) and its successor's fraction on j2 receives it:
  //     sum_{j1} y[i,k,j1,j2] = x[i+1,k,j2].
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    const std::size_t edges = s.size() > 0 ? s.size() - 1 : 0;
    for (std::size_t i = 0; i < edges; ++i) {
      for (std::size_t j1 = 0; j1 < m; ++j1) {
        const std::int32_t row = problem.add_row(Relation::kEqual, 0.0);
        for (std::size_t j2 = 0; j2 < m; ++j2) {
          problem.add_coefficient(row, idx.y(k, i, j1, j2), 1.0);
        }
        problem.add_coefficient(row, idx.x(k, i, j1), -1.0);
      }
      for (std::size_t j2 = 0; j2 < m; ++j2) {
        const std::int32_t row = problem.add_row(Relation::kEqual, 0.0);
        for (std::size_t j1 = 0; j1 < m; ++j1) {
          problem.add_coefficient(row, idx.y(k, i, j1, j2), 1.0);
        }
        problem.add_coefficient(row, idx.x(k, i + 1, j2), -1.0);
      }
    }
  }

  // (f) machine capacity: sum of per-app utilization contributions <= 1
  //     (<= 1 - lambda in complete mode).
  for (std::size_t j = 0; j < m; ++j) {
    const std::int32_t row = problem.add_row(Relation::kLessEqual, 1.0);
    for (std::size_t k = 0; k < q; ++k) {
      const auto& s = model.strings[k];
      for (std::size_t i = 0; i < s.size(); ++i) {
        const double coeff = s.apps[i].cpu_work(j) / s.period_s;
        problem.add_coefficient(row, idx.x(k, i, j), coeff);
      }
    }
    if (complete) problem.add_coefficient(row, lambda, 1.0);
  }

  // (g) route capacity, omitted when no string has an inter-app edge.
  if (upper_bound_route_rows(model) > 0) {
    for (std::size_t j1 = 0; j1 < m; ++j1) {
      for (std::size_t j2 = 0; j2 < m; ++j2) {
        if (j1 == j2) continue;  // infinite intra-machine bandwidth
        const std::int32_t row = problem.add_row(Relation::kLessEqual, 1.0);
        const double w = model.network.bandwidth_mbps(static_cast<model::MachineId>(j1),
                                                      static_cast<model::MachineId>(j2));
        for (std::size_t k = 0; k < q; ++k) {
          const auto& s = model.strings[k];
          const std::size_t edges = s.size() > 0 ? s.size() - 1 : 0;
          for (std::size_t i = 0; i < edges; ++i) {
            const double coeff =
                model::kbytes_to_megabits(s.apps[i].output_kbytes) / s.period_s / w;
            problem.add_coefficient(row, idx.y(k, i, j1, j2), coeff);
          }
        }
        if (complete) problem.add_coefficient(row, lambda, 1.0);
      }
    }
  }
  return problem;
}

}  // namespace tsce::lp

#include "dag/allocator.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "analysis/feasibility.hpp"

namespace tsce::dag {

namespace {

double intensity(const DagString& s, AppIndex i) {
  const auto& a = s.apps[static_cast<std::size_t>(i)];
  return a.avg_time_s() * a.avg_util() / s.period_s;
}

}  // namespace

using analysis::app_load;
using analysis::edge_load;

std::vector<MachineId> dag_map_string(const DagSystemModel& model,
                                      const analysis::Loads& loads, StringId k) {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const auto n = static_cast<AppIndex>(s.size());
  const auto machines = static_cast<MachineId>(model.num_machines());
  std::vector<MachineId> assignment(static_cast<std::size_t>(n), model::kUnassigned);

  // Local utilization additions while this string is being placed.
  std::vector<double> machine_extra(model.num_machines(), 0.0);
  std::vector<double> route_extra(model.num_machines() * model.num_machines(), 0.0);
  auto route_index = [&](MachineId j1, MachineId j2) {
    return static_cast<std::size_t>(j1) * model.num_machines() +
           static_cast<std::size_t>(j2);
  };

  const auto in = s.edges_in();
  const auto out = s.edges_out();
  std::vector<bool> assigned(static_cast<std::size_t>(n), false);

  // Calls fn(e, j1, j2) for each edge e between i and a placed neighbor, with
  // j1 -> j2 the route e would cross were i on machine j: in-edges first,
  // then out-edges, each in edge order.
  auto for_placed_edges = [&](AppIndex i, MachineId j, auto&& fn) {
    for (const std::size_t e : in[static_cast<std::size_t>(i)]) {
      const auto from = static_cast<std::size_t>(s.edges[e].from);
      if (assigned[from]) fn(e, assignment[from], j);
    }
    for (const std::size_t e : out[static_cast<std::size_t>(i)]) {
      const auto to = static_cast<std::size_t>(s.edges[e].to);
      if (assigned[to]) fn(e, j, assignment[to]);
    }
  };

  auto place = [&](AppIndex i) {
    // Candidate score: max of machine utilization and the utilization of all
    // routes linking i to already-assigned neighbors.
    MachineId best_j = 0;
    double best_score = std::numeric_limits<double>::infinity();
    for (MachineId j = 0; j < machines; ++j) {
      double score = loads.machine[static_cast<std::size_t>(j)] +
                     machine_extra[static_cast<std::size_t>(j)] + app_load(s, i, j);
      for_placed_edges(i, j, [&](std::size_t e, MachineId j1, MachineId j2) {
        if (j1 == j2) return;
        score = std::max(score, loads.route_util(j1, j2) + route_extra[route_index(j1, j2)] +
                                    edge_load(model.network, s, e, j1, j2));
      });
      if (score < best_score) {
        best_score = score;
        best_j = j;
      }
    }
    assignment[static_cast<std::size_t>(i)] = best_j;
    assigned[static_cast<std::size_t>(i)] = true;
    machine_extra[static_cast<std::size_t>(best_j)] += app_load(s, i, best_j);
    for_placed_edges(i, best_j, [&](std::size_t e, MachineId j1, MachineId j2) {
      if (j1 != j2) route_extra[route_index(j1, j2)] += edge_load(model.network, s, e, j1, j2);
    });
  };

  auto most_intensive_unplaced = [&]() -> AppIndex {
    AppIndex best = model::kInvalidId;
    double best_val = -std::numeric_limits<double>::infinity();
    for (AppIndex i = 0; i < n; ++i) {
      if (assigned[static_cast<std::size_t>(i)]) continue;
      const double v = intensity(s, i);
      if (v > best_val) {
        best_val = v;
        best = i;
      }
    }
    return best;
  };

  // Places every app on a shortest path (edges taken in either direction)
  // from the placed set to \p target, nearest the placed set first: a
  // breadth-first search from all placed apps, neighbours in edge order.  An
  // unreachable target (the first one, or another component) is placed
  // alone, as a new seed.
  std::vector<AppIndex> parent(static_cast<std::size_t>(n));
  std::vector<AppIndex> queue;
  std::vector<AppIndex> path;
  auto march_to = [&](AppIndex target) {
    std::fill(parent.begin(), parent.end(), model::kInvalidId);
    queue.clear();
    for (AppIndex i = 0; i < n; ++i) {
      if (!assigned[static_cast<std::size_t>(i)]) continue;
      parent[static_cast<std::size_t>(i)] = i;
      queue.push_back(i);
    }
    const auto reached = [&] {
      return parent[static_cast<std::size_t>(target)] != model::kInvalidId;
    };
    for (std::size_t head = 0; head < queue.size() && !reached(); ++head) {
      const AppIndex u = queue[head];
      const auto visit = [&](AppIndex v) {
        if (parent[static_cast<std::size_t>(v)] != model::kInvalidId) return;
        parent[static_cast<std::size_t>(v)] = u;
        queue.push_back(v);
      };
      for (const std::size_t e : in[static_cast<std::size_t>(u)]) visit(s.edges[e].from);
      for (const std::size_t e : out[static_cast<std::size_t>(u)]) visit(s.edges[e].to);
    }
    path.clear();
    for (AppIndex v = target; v != model::kInvalidId && !assigned[static_cast<std::size_t>(v)];
         v = parent[static_cast<std::size_t>(v)]) {
      path.push_back(v);  // an unreachable target has no parent: placed alone
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) place(*it);
  };

  // The most intensive app seeds the mapping; after that, each round marches
  // to the most intensive unplaced app.  On a chain this is the chain IMR.
  for (AppIndex target = most_intensive_unplaced(); target != model::kInvalidId;
       target = most_intensive_unplaced()) {
    march_to(target);
  }
  return assignment;
}

DagAllocatorResult decode_dag_order(const DagSystemModel& model,
                                    const std::vector<StringId>& order) {
  DagAllocatorResult result;
  result.allocation = model::Allocation(model);
  // Running loads of the deployed strings, in deploy order.
  analysis::Loads loads(model.num_machines());
  for (const StringId k : order) {
    const auto assignment = dag_map_string(model, loads, k);
    for (std::size_t i = 0; i < assignment.size(); ++i) {
      result.allocation.assign(k, static_cast<AppIndex>(i), assignment[i]);
    }
    result.allocation.set_deployed(k, true);
    // Full two-stage analysis on the intermediate mapping (batch; the DAG
    // module favors clarity over the incremental session of the chain path).
    if (!analysis::check_feasibility(model, result.allocation).feasible()) {
      result.allocation.clear_string(k);
      break;
    }
    loads.add_string(model, result.allocation, k);
    ++result.strings_deployed;
  }
  result.fitness = analysis::evaluate(model, result.allocation);
  return result;
}

DagAllocatorResult allocate_most_worth_first(const DagSystemModel& model) {
  std::vector<StringId> order(model.num_strings());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](StringId a, StringId b) {
    return model.strings[static_cast<std::size_t>(a)].worth_factor() >
           model.strings[static_cast<std::size_t>(b)].worth_factor();
  });
  return decode_dag_order(model, order);
}

}  // namespace tsce::dag

#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>

#include "analysis/priority.hpp"
#include "analysis/tightness.hpp"

namespace tsce::sim {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

namespace {

constexpr double kEps = 1e-9;
constexpr double kInfTime = std::numeric_limits<double>::infinity();

/// One data set moving through the pipeline.
struct Dataset {
  double arrival = 0.0;         ///< when it became available at this stage
  double remaining = 0.0;       ///< CPU work (app) or megabits (transfer) left
  double source_release = 0.0;  ///< periodic release time at the string source
};

/// A deployed application instance on its machine.
struct AppNode {
  StringId k;
  AppIndex i;
  MachineId machine;
  double max_rate;       ///< u[i,j]: CPU share ceiling
  double work;           ///< t[i,j] * u[i,j] per data set
  double period;
  bool last_in_string;
  std::deque<Dataset> queue;
  double rate = 0.0;
};

/// A deployed inter-machine transfer (output of app i of string k).
struct EdgeNode {
  StringId k;
  AppIndex i;          ///< sending app
  MachineId j1, j2;
  double megabits;     ///< O[i] per data set
  double bandwidth;    ///< w[j1,j2]
  double period;
  std::deque<Dataset> queue;
  double rate = 0.0;
};

}  // namespace

std::size_t SimResult::total_violations() const noexcept {
  std::size_t n = 0;
  for (const auto& per_string : apps) {
    for (const auto& a : per_string) n += a.comp_violations + a.tran_violations;
  }
  for (const auto& s : strings) n += s.latency_violations;
  return n;
}

SimResult simulate(const SystemModel& model, const Allocation& alloc,
                   SimOptions options) {
  const std::size_t q = model.num_strings();
  const std::size_t m = model.num_machines();

  SimResult result;
  result.apps.resize(q);
  result.strings.resize(q);

  // Build nodes for deployed strings.
  std::vector<double> tightness(q, 0.0);
  std::deque<AppNode> app_nodes;  // deque: stable addresses
  std::deque<EdgeNode> edge_nodes;
  // node lookup: app_of[k][i]
  std::vector<std::vector<AppNode*>> app_of(q);
  std::vector<std::vector<EdgeNode*>> edge_of(q);
  double max_period = 0.0;

  for (std::size_t k = 0; k < q; ++k) {
    if (!alloc.deployed(static_cast<StringId>(k))) continue;
    const auto& s = model.strings[k];
    tightness[k] = analysis::priority_value(model, alloc, static_cast<StringId>(k),
                                            options.priority_rule);
    max_period = std::max(max_period, s.period_s);
    result.apps[k].resize(s.size());
    app_of[k].resize(s.size(), nullptr);
    edge_of[k].resize(s.size() > 0 ? s.size() - 1 : 0, nullptr);
    for (std::size_t i = 0; i < s.size(); ++i) {
      const MachineId j = alloc.machine_of(static_cast<StringId>(k),
                                           static_cast<AppIndex>(i));
      AppNode node;
      node.k = static_cast<StringId>(k);
      node.i = static_cast<AppIndex>(i);
      node.machine = j;
      node.max_rate = s.apps[i].nominal_util[static_cast<std::size_t>(j)];
      node.work = s.apps[i].cpu_work(static_cast<std::size_t>(j));
      node.period = s.period_s;
      node.last_in_string = i + 1 == s.size();
      app_nodes.push_back(node);
      app_of[k][i] = &app_nodes.back();
      if (i + 1 < s.size()) {
        const MachineId j2 = alloc.machine_of(static_cast<StringId>(k),
                                              static_cast<AppIndex>(i + 1));
        if (j != j2) {
          EdgeNode edge;
          edge.k = static_cast<StringId>(k);
          edge.i = static_cast<AppIndex>(i);
          edge.j1 = j;
          edge.j2 = j2;
          edge.megabits = model::kbytes_to_megabits(s.apps[i].output_kbytes);
          edge.bandwidth = model.network.bandwidth_mbps(j, j2);
          edge.period = s.period_s;
          edge_nodes.push_back(edge);
          edge_of[k][i] = &edge_nodes.back();
        }
      }
    }
  }

  const double horizon =
      options.horizon_s > 0.0 ? options.horizon_s : 20.0 * std::max(max_period, 1.0);
  result.simulated_s = horizon;
  const double warmup = std::min(options.warmup_s, horizon);
  const double window = horizon - warmup;
  std::vector<double> machine_busy(m, 0.0);
  std::vector<double> route_busy(m * m, 0.0);

  // Per-machine / per-route resident lists, sorted by priority (tightest
  // first; deterministic tie-break by string id then app index).  Apps and
  // transfers of one string share its priority value, so the string order is
  // analysis::higher_priority and only same-string entries fall back to the
  // app index.
  auto before = [&](const auto* a, const auto* b) {
    if (a->k != b->k) {
      return analysis::higher_priority(tightness[static_cast<std::size_t>(a->k)], a->k,
                                       tightness[static_cast<std::size_t>(b->k)], b->k);
    }
    return a->i < b->i;
  };
  std::vector<std::vector<AppNode*>> machine_nodes(m);
  for (auto& node : app_nodes) {
    machine_nodes[static_cast<std::size_t>(node.machine)].push_back(&node);
  }
  for (auto& nodes : machine_nodes) std::sort(nodes.begin(), nodes.end(), before);
  std::vector<std::vector<EdgeNode*>> route_nodes(m * m);
  for (auto& edge : edge_nodes) {
    route_nodes[static_cast<std::size_t>(edge.j1) * m +
                static_cast<std::size_t>(edge.j2)]
        .push_back(&edge);
  }
  for (auto& nodes : route_nodes) std::sort(nodes.begin(), nodes.end(), before);

  // Periodic sources.
  std::vector<std::size_t> released(q, 0);

  // Delivery of a finished data set from app i of string k at time t.
  // `record` gates statistics (false during warm-up); delivery always happens.
  auto deliver_downstream = [&](const AppNode& from, const Dataset& d, double t,
                                bool record) {
    const auto k = static_cast<std::size_t>(from.k);
    const auto i = static_cast<std::size_t>(from.i);
    if (from.last_in_string) {
      const double latency = t - d.source_release;
      if (record) {
        result.strings[k].latency_s.add(latency);
        result.strings[k].datasets_completed += 1;
        if (latency > model.strings[k].max_latency_s * (1.0 + 1e-9)) {
          result.strings[k].latency_violations += 1;
        }
      }
      return;
    }
    EdgeNode* edge = edge_of[k][i];
    if (edge == nullptr || edge->megabits <= 0.0) {
      // Same machine (or empty output): instantaneous transfer, measured 0.
      if (record) result.apps[k][i].tran_s.add(0.0);
      AppNode* next = app_of[k][i + 1];
      next->queue.push_back({t, next->work, d.source_release});
      return;
    }
    edge->queue.push_back({t, edge->megabits, d.source_release});
  };

  double t = 0.0;
  for (; result.events < options.max_events; ++result.events) {
    // 1. Rate assignment: priority cascade on CPUs, strict priority on routes.
    for (const auto& nodes : machine_nodes) {
      double remaining = 1.0;
      for (AppNode* node : nodes) {
        if (node->queue.empty()) {
          node->rate = 0.0;
          continue;
        }
        node->rate = std::min(node->max_rate, remaining);
        remaining -= node->rate;
      }
    }
    for (const auto& nodes : route_nodes) {
      bool served = false;
      for (EdgeNode* edge : nodes) {
        if (edge->queue.empty() || served) {
          edge->rate = 0.0;
        } else {
          edge->rate = edge->bandwidth;
          served = true;
        }
      }
    }

    // 2. Earliest next event: completion or periodic arrival.
    double t_next = kInfTime;
    for (const auto& node : app_nodes) {
      if (!node.queue.empty() && node.rate > 0.0) {
        t_next = std::min(t_next, t + node.queue.front().remaining / node.rate);
      }
    }
    for (const auto& edge : edge_nodes) {
      if (!edge.queue.empty() && edge.rate > 0.0) {
        t_next = std::min(t_next, t + edge.queue.front().remaining / edge.rate);
      }
    }
    for (std::size_t k = 0; k < q; ++k) {
      if (!alloc.deployed(static_cast<StringId>(k))) continue;
      const double next_release =
          static_cast<double>(released[k]) * model.strings[k].period_s;
      if (next_release <= horizon) t_next = std::min(t_next, next_release);
    }
    if (!std::isfinite(t_next) || t_next > horizon) break;

    // 3. Advance work (and meter resource consumption past the warm-up).
    const double dt = t_next - t;
    if (dt > 0.0) {
      const double metered_dt =
          std::max(0.0, std::min(t_next, horizon) - std::max(t, warmup));
      for (auto& node : app_nodes) {
        if (!node.queue.empty() && node.rate > 0.0) {
          node.queue.front().remaining =
              std::max(0.0, node.queue.front().remaining - node.rate * dt);
          machine_busy[static_cast<std::size_t>(node.machine)] +=
              node.rate * metered_dt;
        }
      }
      for (auto& edge : edge_nodes) {
        if (!edge.queue.empty() && edge.rate > 0.0) {
          edge.queue.front().remaining =
              std::max(0.0, edge.queue.front().remaining - edge.rate * dt);
          route_busy[static_cast<std::size_t>(edge.j1) * m +
                     static_cast<std::size_t>(edge.j2)] += metered_dt;
        }
      }
    }
    t = t_next;
    const bool record = t >= warmup;

    // 4. Completions (at most one per node per event round).
    for (auto& node : app_nodes) {
      if (node.queue.empty() || node.rate <= 0.0) continue;
      Dataset& d = node.queue.front();
      if (d.remaining > kEps) continue;
      const auto k = static_cast<std::size_t>(node.k);
      const auto i = static_cast<std::size_t>(node.i);
      const double comp = t - d.arrival;
      if (record) {
        result.apps[k][i].comp_s.add(comp);
        if (comp > node.period * (1.0 + 1e-9)) {
          result.apps[k][i].comp_violations += 1;
        }
      }
      const Dataset done = d;
      node.queue.pop_front();
      deliver_downstream(node, done, t, record);
    }
    for (auto& edge : edge_nodes) {
      if (edge.queue.empty() || edge.rate <= 0.0) continue;
      Dataset& d = edge.queue.front();
      if (d.remaining > kEps) continue;
      const auto k = static_cast<std::size_t>(edge.k);
      const auto i = static_cast<std::size_t>(edge.i);
      const double tran = t - d.arrival;
      if (record) {
        result.apps[k][i].tran_s.add(tran);
        if (tran > edge.period * (1.0 + 1e-9)) {
          result.apps[k][i].tran_violations += 1;
        }
      }
      const Dataset done = d;
      edge.queue.pop_front();
      AppNode* next = app_of[k][i + 1];
      next->queue.push_back({t, next->work, done.source_release});
    }

    // 5. Periodic releases due now.
    for (std::size_t k = 0; k < q; ++k) {
      if (!alloc.deployed(static_cast<StringId>(k))) continue;
      const double period = model.strings[k].period_s;
      while (static_cast<double>(released[k]) * period <= t + kEps &&
             static_cast<double>(released[k]) * period <= horizon) {
        const double release = static_cast<double>(released[k]) * period;
        AppNode* first = app_of[k][0];
        first->queue.push_back({release, first->work, release});
        released[k] += 1;
      }
    }
  }

  result.measured_machine_util.assign(m, 0.0);
  result.measured_route_util.assign(m * m, 0.0);
  if (window > 0.0) {
    for (std::size_t j = 0; j < m; ++j) {
      result.measured_machine_util[j] = machine_busy[j] / window;
    }
    for (std::size_t r = 0; r < m * m; ++r) {
      result.measured_route_util[r] = route_busy[r] / window;
    }
  }
  return result;
}

SystemModel scale_input_workload(const SystemModel& model, double factor) {
  SystemModel scaled = model;
  for (auto& s : scaled.strings) {
    for (auto& a : s.apps) {
      for (auto& time : a.nominal_time_s) time *= factor;
      a.output_kbytes *= factor;
    }
  }
  return scaled;
}

}  // namespace tsce::sim

#include "model/dag.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace tsce::dag {

std::vector<AppIndex> DagString::topological_order() const {
  const std::size_t n = size();
  std::vector<std::size_t> in_degree(n, 0);
  for (const DagEdge& e : edges) {
    if (e.to >= 0 && static_cast<std::size_t>(e.to) < n) {
      ++in_degree[static_cast<std::size_t>(e.to)];
    }
  }
  // Each node enters the ready queue at most once, so a reserved vector with
  // a head cursor replaces the deque: one allocation, FIFO order preserved.
  std::vector<AppIndex> ready;
  ready.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (in_degree[i] == 0) ready.push_back(static_cast<AppIndex>(i));
  }
  std::vector<AppIndex> order;
  order.reserve(n);
  const auto out = edges_out();
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const AppIndex i = ready[head];
    order.push_back(i);
    for (const std::size_t e : out[static_cast<std::size_t>(i)]) {
      const auto to = static_cast<std::size_t>(edges[e].to);
      if (--in_degree[to] == 0) ready.push_back(static_cast<AppIndex>(to));
    }
  }
  if (order.size() != n) order.clear();  // cycle
  return order;
}

std::vector<std::vector<std::size_t>> DagString::edges_in() const {
  std::vector<std::vector<std::size_t>> in(size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    in[static_cast<std::size_t>(edges[e].to)].push_back(e);
  }
  return in;
}

std::vector<std::vector<std::size_t>> DagString::edges_out() const {
  std::vector<std::vector<std::size_t>> out(size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    out[static_cast<std::size_t>(edges[e].from)].push_back(e);
  }
  return out;
}

CriticalPath DagString::critical_path(std::span<const double> comp,
                                     std::span<const double> tran) const {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const auto in = edges_in();
  std::vector<double> finish(size(), 0.0);
  std::vector<std::size_t> pred(size(), kNone);  // edge the path enters by
  CriticalPath path;
  std::size_t sink = kNone;
  for (const AppIndex i : topological_order()) {
    const auto iu = static_cast<std::size_t>(i);
    double start = 0.0;
    for (const std::size_t e : in[iu]) {
      const double arrive = finish[static_cast<std::size_t>(edges[e].from)] + tran[e];
      if (start < arrive) {
        start = arrive;
        pred[iu] = e;
      }
    }
    finish[iu] = start + comp[iu];
    if (path.length < finish[iu]) {
      path.length = finish[iu];
      sink = iu;
    }
  }
  for (std::size_t i = sink; i != kNone;) {
    path.apps.push_back(static_cast<AppIndex>(i));
    if (pred[i] == kNone) break;
    path.edges.push_back(pred[i]);
    i = static_cast<std::size_t>(edges[pred[i]].from);
  }
  std::reverse(path.apps.begin(), path.apps.end());
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

int DagSystemModel::total_worth_available() const noexcept {
  int worth = 0;
  for (const auto& s : strings) worth += s.worth_factor();
  return worth;
}

namespace {
void note(std::vector<std::string>& problems, bool ok, const char* fmt, auto... args) {
  if (ok) return;
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  problems.emplace_back(buf);
}
}  // namespace

std::vector<std::string> DagSystemModel::validate() const {
  std::vector<std::string> problems;
  const std::size_t m = num_machines();
  note(problems, m > 0, "system has no machines");
  for (std::size_t k = 0; k < strings.size(); ++k) {
    const DagString& s = strings[k];
    note(problems, !s.apps.empty(), "dag string %zu has no applications", k);
    note(problems, s.period_s > 0.0, "dag string %zu has nonpositive period", k);
    note(problems, s.max_latency_s > 0.0, "dag string %zu has nonpositive latency",
         k);
    for (std::size_t i = 0; i < s.apps.size(); ++i) {
      note(problems, s.apps[i].nominal_time_s.size() == m,
           "dag string %zu app %zu time vector size mismatch", k, i);
      note(problems, s.apps[i].nominal_util.size() == m,
           "dag string %zu app %zu util vector size mismatch", k, i);
    }
    const auto n = static_cast<AppIndex>(s.size());
    bool edges_ok = true;
    for (const DagEdge& e : s.edges) {
      if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n || e.from == e.to ||
          e.output_kbytes < 0.0) {
        edges_ok = false;
      }
    }
    note(problems, edges_ok, "dag string %zu has an invalid edge", k);
    if (edges_ok) {
      note(problems, !s.topological_order().empty() || s.apps.empty(),
           "dag string %zu contains a cycle", k);
    }
  }
  return problems;
}

DagString chain_from_app_string(const model::AppString& s) {
  DagString dag;
  dag.apps = s.apps;
  dag.period_s = s.period_s;
  dag.max_latency_s = s.max_latency_s;
  dag.worth = s.worth;
  dag.name = s.name;
  for (std::size_t i = 0; i + 1 < s.apps.size(); ++i) {
    dag.edges.push_back({static_cast<AppIndex>(i), static_cast<AppIndex>(i + 1),
                         s.apps[i].output_kbytes});
  }
  return dag;
}

model::AppString to_app_string(const DagString& dag) {
  model::AppString s;
  s.apps = dag.apps;
  s.period_s = dag.period_s;
  s.max_latency_s = dag.max_latency_s;
  s.worth = dag.worth;
  s.name = dag.name;
  if (dag.edges.size() + 1 != dag.apps.size() && !dag.apps.empty() &&
      !(dag.apps.size() == 1 && dag.edges.empty())) {
    throw std::invalid_argument("to_app_string: not a path DAG");
  }
  std::vector<bool> seen(dag.apps.size(), false);
  for (const DagEdge& e : dag.edges) {
    if (e.to != e.from + 1 || seen[static_cast<std::size_t>(e.from)]) {
      throw std::invalid_argument("to_app_string: edges must form the path i->i+1");
    }
    seen[static_cast<std::size_t>(e.from)] = true;
    s.apps[static_cast<std::size_t>(e.from)].output_kbytes = e.output_kbytes;
  }
  if (!s.apps.empty()) s.apps.back().output_kbytes = 0.0;
  return s;
}

DagSystemModel lift(const model::SystemModel& m) {
  DagSystemModel dag;
  dag.network = m.network;
  dag.strings.reserve(m.num_strings());
  for (const auto& s : m.strings) {
    dag.strings.push_back(chain_from_app_string(s));
  }
  return dag;
}

}  // namespace tsce::dag

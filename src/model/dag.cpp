#include "model/dag.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace tsce::dag {

EdgeBuckets::EdgeBuckets(std::size_t n, const std::vector<DagEdge>& edges,
                         AppIndex DagEdge::*endpoint)
    : data_(n + 1 + edges.size(), 0) {
  const auto bucket = [endpoint](const DagEdge& e) {
    return static_cast<std::size_t>(e.*endpoint);
  };
  // Counting sort: count per bucket, turn counts into bucket ends, then
  // place edges last to first, moving each boundary down to its start.
  for (const DagEdge& e : edges) ++data_[bucket(e)];
  std::size_t end = n + 1;
  for (std::size_t i = 0; i < n; ++i) {
    end += data_[i];
    data_[i] = end;
  }
  data_[n] = end;
  for (std::size_t e = edges.size(); e-- > 0;) data_[--data_[bucket(edges[e])]] = e;
}

namespace {

/// Kahn's algorithm with a FIFO ready queue seeded in index order, releasing
/// targets in out-edge order; empty when the graph has a cycle.  The order
/// vector doubles as the queue: a head cursor walks it as it grows.
std::vector<AppIndex> kahn_order(std::size_t n, const std::vector<DagEdge>& edges,
                                 const EdgeBuckets& in, const EdgeBuckets& out) {
  std::vector<std::size_t> waiting(n);
  std::vector<AppIndex> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    waiting[i] = in[i].size();
    if (waiting[i] == 0) order.push_back(static_cast<AppIndex>(i));
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::size_t e : out[static_cast<std::size_t>(order[head])]) {
      const auto to = static_cast<std::size_t>(edges[e].to);
      if (--waiting[to] == 0) order.push_back(static_cast<AppIndex>(to));
    }
  }
  if (order.size() != n) order.clear();  // cycle
  return order;
}

}  // namespace

std::vector<AppIndex> DagString::topological_order() const {
  return kahn_order(size(), edges, edges_in(), edges_out());
}

EdgeBuckets DagString::edges_in() const { return {size(), edges, &DagEdge::to}; }

EdgeBuckets DagString::edges_out() const { return {size(), edges, &DagEdge::from}; }

CriticalPath DagString::critical_path(std::span<const double> comp,
                                     std::span<const double> tran) const {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const EdgeBuckets in = edges_in();
  std::vector<double> finish(size(), 0.0);
  std::vector<std::size_t> pred(size(), kNone);  // edge the path enters by
  CriticalPath path;
  std::size_t sink = kNone;
  for (const AppIndex i : kahn_order(size(), edges, in, edges_out())) {
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
  path.apps.reserve(size());  // a path visits each application at most once
  path.edges.reserve(edges.size());
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

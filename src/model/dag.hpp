/// \file dag.hpp
/// DAG-structured application strings (paper §2, footnote 2: "The final ARMS
/// program may include DAGs of applications").
///
/// A DagString generalizes the linear string: applications form a directed
/// acyclic graph whose edges carry data transfers.  A data set is processed
/// once per period by every application; an application starts once ALL its
/// incoming transfers for that data set have arrived, and the end-to-end
/// latency is governed by the critical path instead of the chain sum.
/// Linear strings embed as path graphs — chain_from_app_string /
/// to_app_string convert both ways.  The from-scratch analysis of §3
/// (analysis/estimates.hpp) works on this form, and the linear entry points
/// analyze a chain as its lift.  Allocations of either form are
/// model::Allocation.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "model/application.hpp"
#include "model/app_string.hpp"
#include "model/network.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::dag {

using model::AppIndex;
using model::MachineId;
using model::StringId;

/// A data transfer between two applications of the same DAG string.
struct DagEdge {
  AppIndex from = 0;
  AppIndex to = 0;
  double output_kbytes = 0.0;
  friend bool operator==(const DagEdge&, const DagEdge&) = default;
};

/// Edge indices bucketed by one endpoint (see DagString::edges_in /
/// edges_out), in one buffer: n + 1 bucket boundaries, then the edge
/// indices, each bucket in edge index order.  Bucket i is operator[](i).
class EdgeBuckets {
 public:
  /// Buckets \p edges by their \p endpoint (&DagEdge::from or &DagEdge::to),
  /// which must be below \p n.
  EdgeBuckets(std::size_t n, const std::vector<DagEdge>& edges,
              AppIndex DagEdge::*endpoint);

  [[nodiscard]] std::span<const std::size_t> operator[](std::size_t i) const noexcept {
    return {data_.data() + data_[i], data_[i + 1] - data_[i]};
  }

 private:
  std::vector<std::size_t> data_;
};

/// A longest path through a DAG string under given durations.
struct CriticalPath {
  double length = 0.0;
  std::vector<AppIndex> apps;      ///< the path's applications, in path order
  std::vector<std::size_t> edges;  ///< the edges between them, in path order
};

struct DagString {
  std::vector<model::Application> apps;  ///< per-app output_kbytes is unused
  std::vector<DagEdge> edges;
  double period_s = 0.0;
  double max_latency_s = 0.0;
  model::Worth worth = model::Worth::kLow;
  std::string name;

  [[nodiscard]] std::size_t size() const noexcept { return apps.size(); }
  [[nodiscard]] int worth_factor() const noexcept {
    return model::worth_value(worth);
  }

  /// Topological order of the applications (Kahn's algorithm, FIFO, ready
  /// applications in index order); empty when the graph has a cycle (which
  /// validate() reports as an error).  Edge endpoints must be valid.
  [[nodiscard]] std::vector<AppIndex> topological_order() const;

  /// Incoming/outgoing edge indices per application, in edge order.  Edge
  /// endpoints must be valid.
  [[nodiscard]] EdgeBuckets edges_in() const;
  [[nodiscard]] EdgeBuckets edges_out() const;

  /// Longest path given per-app durations \p comp and per-edge durations
  /// \p tran: an app starts when its last input arrives.  Ties keep the
  /// first candidate in topological and edge order; the path is empty when
  /// every duration is 0.
  [[nodiscard]] CriticalPath critical_path(std::span<const double> comp,
                                           std::span<const double> tran) const;
};

struct DagSystemModel {
  model::Network network;
  std::vector<DagString> strings;

  [[nodiscard]] std::size_t num_machines() const noexcept {
    return network.num_machines();
  }
  [[nodiscard]] std::size_t num_strings() const noexcept { return strings.size(); }
  [[nodiscard]] int total_worth_available() const noexcept;

  /// Structural validation (acyclicity, edge endpoints, positive parameters).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Embeds a linear string as a path DAG (edge i -> i+1 with O[i]).
[[nodiscard]] DagString chain_from_app_string(const model::AppString& s);
/// Converts a path DAG back to a linear string; throws std::invalid_argument
/// when the DAG is not a single path in index order.
[[nodiscard]] model::AppString to_app_string(const DagString& dag);
/// Lifts a whole linear system into the DAG representation.
[[nodiscard]] DagSystemModel lift(const model::SystemModel& m);

}  // namespace tsce::dag

/// \file allocator.hpp
/// DAG-aware greedy mapping: the IMR generalized from chains to DAGs.
///
/// The chain IMR seeds at the most computationally intensive application and
/// then marches its contiguous placed range, one neighbour at a time, toward
/// the most intensive unplaced application.  For a DAG the march follows a
/// shortest path (edges in either direction) from the placed set to that
/// application, so on a chain the two mappers place the same applications in
/// the same order.  Each application goes on the machine that minimizes the
/// max of the affected machine utilization and the utilizations of the
/// routes to its already-placed neighbors.

#pragma once

#include <vector>

#include "analysis/estimates.hpp"
#include "analysis/metrics.hpp"
#include "model/allocation.hpp"
#include "model/dag.hpp"

namespace tsce::dag {

/// Maps one DAG string against the committed machine and route loads.
[[nodiscard]] std::vector<MachineId> dag_map_string(const DagSystemModel& model,
                                                    const analysis::Loads& loads,
                                                    StringId k);

struct DagAllocatorResult {
  model::Allocation allocation;
  analysis::Fitness fitness;
  std::size_t strings_deployed = 0;
};

/// Sequential most-worth-first allocation with full two-stage feasibility
/// after each string; the first failure terminates the process (the MWF rule
/// of paper §5 applied to DAG strings).
[[nodiscard]] DagAllocatorResult allocate_most_worth_first(const DagSystemModel& model);

/// Decodes an explicit string order the same way.
[[nodiscard]] DagAllocatorResult decode_dag_order(const DagSystemModel& model,
                                                  const std::vector<StringId>& order);

}  // namespace tsce::dag

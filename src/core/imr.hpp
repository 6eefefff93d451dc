/// \file imr.hpp
/// The Incremental Mapping Routine (paper §5): greedy allocation of one
/// string onto the machine suite, guided by post-assignment resource
/// utilization.
///
/// The routine seeds at the most computationally intensive application
/// (argmax of t_av * u_av / P), places it on the machine with minimal
/// resulting utilization, then repeatedly locates the next most intensive
/// unassigned application and marches the contiguous assigned range toward
/// it; every intermediate application is placed on the machine minimizing the
/// max of the affected machine utilization and the utilization of the route
/// connecting it to its already-placed neighbor.  Ties are broken by lowest
/// machine index so the routine is deterministic.

#pragma once

#include <vector>

#include "analysis/utilization.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"

namespace tsce::core {

/// Computational intensity used for application ordering inside the IMR,
/// t_av[i] * u_av[i] / P[k]; the IMR reads it from the coefficient tables.
using analysis::computational_intensity;

/// Reusable working buffers for the IMR.  Hot search loops map a string per
/// candidate evaluation; keeping the buffers alive across calls makes the
/// routine allocation-free after the first use (see DecodeContext).
struct ImrScratch {
  std::vector<double> machine_extra;
  std::vector<double> route_extra;
  std::vector<char> in_d;
};

/// Maps string \p k against the resource usage in \p util (which reflects all
/// previously committed strings; it is not modified), writing one machine per
/// application into \p assignment (resized as needed).  Feasibility is NOT
/// checked here; the caller runs the two-stage analysis on the resulting
/// intermediate mapping.
void imr_map_string_into(const model::SystemModel& model,
                         const analysis::UtilizationState& util,
                         model::StringId k, ImrScratch& scratch,
                         std::vector<model::MachineId>& assignment);

/// Convenience wrapper over imr_map_string_into with throwaway buffers.
[[nodiscard]] std::vector<model::MachineId> imr_map_string(
    const model::SystemModel& model, const analysis::UtilizationState& util,
    model::StringId k);

}  // namespace tsce::core

#include "core/imr.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/hot.hpp"

namespace tsce::core {

using analysis::UtilizationState;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

namespace {

/// Local view of resource usage: committed state plus the in-progress
/// assignments of the string being mapped.  Buffers live in the caller's
/// ImrScratch so repeated mappings do not allocate.
class ScratchUtil {
 public:
  ScratchUtil(const SystemModel& model, const UtilizationState& util, StringId k,
              ImrScratch& scratch)
      : model_(model),
        util_(util),
        machines_(model.num_machines()),
        machine_delta_(util.coefficients().machine_delta.data() +
                       util.coefficients().app(k, 0) * model.num_machines()),
        mbits_per_period_(util.coefficients().mbits_per_period.data() +
                          util.coefficients().app(k, 0)),
        machine_extra_(scratch.machine_extra),
        route_extra_(scratch.route_extra) {
    machine_extra_.assign(machines_, 0.0);
    route_extra_.assign(machines_ * machines_, 0.0);
  }

  [[nodiscard]] double machine_util_if(MachineId j, AppIndex i) const noexcept {
    return util_.machine_util(j) + machine_extra_[static_cast<std::size_t>(j)] +
           machine_delta(i, j);
  }

  /// Route j1->j2 utilization if the output of app \p sender were added.
  [[nodiscard]] double route_util_if(MachineId j1, MachineId j2,
                                     AppIndex sender) const noexcept {
    if (j1 == j2) return 0.0;
    return util_.route_util(j1, j2) + route_extra_[route_index(j1, j2)] +
           route_delta(sender, j1, j2);
  }

  void commit_app(AppIndex i, MachineId j) noexcept {
    machine_extra_[static_cast<std::size_t>(j)] += machine_delta(i, j);
  }

  void commit_transfer(AppIndex sender, MachineId j1, MachineId j2) noexcept {
    if (j1 == j2) return;
    route_extra_[route_index(j1, j2)] += route_delta(sender, j1, j2);
  }

 private:
  [[nodiscard]] std::size_t route_index(MachineId j1, MachineId j2) const noexcept {
    return static_cast<std::size_t>(j1) * machines_ + static_cast<std::size_t>(j2);
  }
  /// UtilizationState::machine_delta / route_delta of string k, read from
  /// k's rows of the coefficient tables.
  [[nodiscard]] double machine_delta(AppIndex i, MachineId j) const noexcept {
    return machine_delta_[static_cast<std::size_t>(i) * machines_ +
                          static_cast<std::size_t>(j)];
  }
  [[nodiscard]] double route_delta(AppIndex sender, MachineId j1,
                                   MachineId j2) const noexcept {
    return mbits_per_period_[static_cast<std::size_t>(sender)] /
           model_.network.bandwidth_mbps(j1, j2);
  }

  const SystemModel& model_;
  const UtilizationState& util_;
  std::size_t machines_;
  const double* machine_delta_;     ///< k's (app, machine) rows
  const double* mbits_per_period_;  ///< k's app rows
  std::vector<double>& machine_extra_;
  std::vector<double>& route_extra_;
};

}  // namespace

TSCE_HOT void imr_map_string_into(const SystemModel& model, const UtilizationState& util,
                         StringId k, ImrScratch& buffers,
                         std::vector<MachineId>& assignment) {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const auto n = static_cast<AppIndex>(s.size());
  const auto m = static_cast<MachineId>(model.num_machines());
  assert(n > 0 && m > 0);

  assignment.assign(static_cast<std::size_t>(n), model::kUnassigned);
  auto& in_d = buffers.in_d;
  in_d.assign(static_cast<std::size_t>(n), 0);
  ScratchUtil scratch(model, util, k, buffers);

  // Step 1: the most computationally intensive application seeds the mapping.
  const double* const intensity =
      util.coefficients().intensity.data() + util.coefficients().app(k, 0);
  auto most_intensive_unassigned = [&]() {
    AppIndex best = model::kInvalidId;
    double best_val = -std::numeric_limits<double>::infinity();
    for (AppIndex i = 0; i < n; ++i) {
      if (in_d[static_cast<std::size_t>(i)]) continue;
      const double v = intensity[static_cast<std::size_t>(i)];
      if (v > best_val) {
        best_val = v;
        best = i;
      }
    }
    return best;
  };
  const AppIndex seed = most_intensive_unassigned();

  // Step 2: machine with minimal post-assignment utilization (ties -> lowest j).
  {
    MachineId best_j = 0;
    double best_u = std::numeric_limits<double>::infinity();
    for (MachineId j = 0; j < m; ++j) {
      const double u = scratch.machine_util_if(j, seed);
      if (u < best_u) {
        best_u = u;
        best_j = j;
      }
    }
    assignment[static_cast<std::size_t>(seed)] = best_j;
    scratch.commit_app(seed, best_j);
    in_d[static_cast<std::size_t>(seed)] = true;
  }

  // Step 4: grow the contiguous assigned range [i_left, i_right] toward the
  // next most intensive unassigned application, one neighbor at a time.
  AppIndex i_left = seed;
  AppIndex i_right = seed;
  AppIndex assigned = 1;
  while (assigned < n) {
    const AppIndex target = most_intensive_unassigned();
    assert(target != model::kInvalidId);
    while (target > i_right) {
      const AppIndex i = i_right + 1;
      const MachineId prev = assignment[static_cast<std::size_t>(i - 1)];
      // Minimize the max of the machine utilization and the utilization of
      // the route carrying O[i-1] from the predecessor's machine.
      MachineId best_j = 0;
      double best_val = std::numeric_limits<double>::infinity();
      for (MachineId j = 0; j < m; ++j) {
        const double val = std::max(scratch.machine_util_if(j, i),
                                    scratch.route_util_if(prev, j, i - 1));
        if (val < best_val) {
          best_val = val;
          best_j = j;
        }
      }
      assignment[static_cast<std::size_t>(i)] = best_j;
      scratch.commit_app(i, best_j);
      scratch.commit_transfer(i - 1, prev, best_j);
      in_d[static_cast<std::size_t>(i)] = true;
      ++assigned;
      i_right = i;
    }
    while (target < i_left) {
      const AppIndex i = i_left - 1;
      const MachineId next = assignment[static_cast<std::size_t>(i + 1)];
      MachineId best_j = 0;
      double best_val = std::numeric_limits<double>::infinity();
      for (MachineId j = 0; j < m; ++j) {
        const double val = std::max(scratch.machine_util_if(j, i),
                                    scratch.route_util_if(j, next, i));
        if (val < best_val) {
          best_val = val;
          best_j = j;
        }
      }
      assignment[static_cast<std::size_t>(i)] = best_j;
      scratch.commit_app(i, best_j);
      scratch.commit_transfer(i, best_j, next);
      in_d[static_cast<std::size_t>(i)] = true;
      ++assigned;
      i_left = i;
    }
  }
}

std::vector<MachineId> imr_map_string(const SystemModel& model,
                                      const UtilizationState& util, StringId k) {
  ImrScratch scratch;
  std::vector<MachineId> assignment;
  imr_map_string_into(model, util, k, scratch, assignment);
  return assignment;
}

}  // namespace tsce::core

#include "analysis/estimates.hpp"

#include <cmath>
#include <limits>
#include <span>

#include "analysis/priority.hpp"
#include "analysis/tightness.hpp"

namespace tsce::analysis {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

double TimeEstimates::latency(StringId k) const noexcept {
  const auto& c = comp[static_cast<std::size_t>(k)];
  const auto& t = tran[static_cast<std::size_t>(k)];
  double total = 0.0;
  for (double x : c) total += x;
  for (double x : t) total += x;
  return total;
}

namespace {

/// Estimated computation time of one deployed app (k,i), given the resident
/// sets in \p util and per-string priority values \p t_of.
double estimate_comp_time(const SystemModel& model, const Allocation& alloc,
                          const UtilizationState& util, std::span<const double> t_of,
                          StringId k, AppIndex i) noexcept {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const MachineId j = alloc.machine_of(k, i);
  const auto ju = static_cast<std::size_t>(j);
  double t = s.apps[static_cast<std::size_t>(i)].nominal_time_s[ju];
  const double t_k = t_of[static_cast<std::size_t>(k)];
  // Average waiting: each higher-priority data set of app p (string z) on the
  // same machine delays us by its CPU work t[p,j]*u[p,j], scaled by how many
  // of its periods overlap one of ours (P[k]/P[z]); see Figure 2 cases 1-3.
  for (const AppRef& ref : util.apps_on(j)) {
    if (ref.k == k) continue;  // same-string apps share one tightness value
    const double t_z = t_of[static_cast<std::size_t>(ref.k)];
    if (!higher_priority(t_z, ref.k, t_k, k)) continue;
    const auto& sz = model.strings[static_cast<std::size_t>(ref.k)];
    const auto& az = sz.apps[static_cast<std::size_t>(ref.i)];
    t += (s.period_s / sz.period_s) * az.cpu_work(ju);
  }
  return t;
}

/// Estimated transfer time of the output of deployed app (k,i), i < n_k - 1.
double estimate_tran_time(const SystemModel& model, const Allocation& alloc,
                          const UtilizationState& util, std::span<const double> t_of,
                          StringId k, AppIndex i) noexcept {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const MachineId j1 = alloc.machine_of(k, i);
  const MachineId j2 = alloc.machine_of(k, i + 1);
  if (j1 == j2) return 0.0;  // intra-machine: infinite bandwidth
  const double w = model.network.bandwidth_mbps(j1, j2);
  double t = model::kbytes_to_megabits(s.apps[static_cast<std::size_t>(i)].output_kbytes) / w;
  const double t_k = t_of[static_cast<std::size_t>(k)];
  for (const AppRef& ref : util.transfers_on(j1, j2)) {
    if (ref.k == k) continue;
    const double t_z = t_of[static_cast<std::size_t>(ref.k)];
    if (!higher_priority(t_z, ref.k, t_k, k)) continue;
    const auto& sz = model.strings[static_cast<std::size_t>(ref.k)];
    const auto& az = sz.apps[static_cast<std::size_t>(ref.i)];
    t += (s.period_s / sz.period_s) * model::kbytes_to_megabits(az.output_kbytes) / w;
  }
  return t;
}

}  // namespace

TimeEstimates estimate_all(const SystemModel& model, const Allocation& alloc,
                           PriorityRule rule) {
  const std::size_t q = model.num_strings();
  TimeEstimates est;
  est.comp.resize(q);
  est.tran.resize(q);
  est.tightness.assign(q, std::numeric_limits<double>::quiet_NaN());

  const UtilizationState util = UtilizationState::from_allocation(model, alloc);
  for (std::size_t k = 0; k < q; ++k) {
    if (alloc.deployed(static_cast<StringId>(k))) {
      est.tightness[k] = priority_value(model, alloc, static_cast<StringId>(k), rule);
    }
  }
  for (std::size_t k = 0; k < q; ++k) {
    if (!alloc.deployed(static_cast<StringId>(k))) continue;
    const auto n = model.strings[k].size();
    est.comp[k].resize(n);
    est.tran[k].resize(n > 0 ? n - 1 : 0);
    for (std::size_t i = 0; i < n; ++i) {
      est.comp[k][i] = estimate_comp_time(model, alloc, util, est.tightness,
                                          static_cast<StringId>(k),
                                          static_cast<AppIndex>(i));
      if (i + 1 < n) {
        est.tran[k][i] = estimate_tran_time(model, alloc, util, est.tightness,
                                            static_cast<StringId>(k),
                                            static_cast<AppIndex>(i));
      }
    }
  }
  return est;
}

}  // namespace tsce::analysis

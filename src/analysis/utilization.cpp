#include "analysis/utilization.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

#include "analysis/feasibility.hpp"
#include "util/hot.hpp"

namespace tsce::analysis {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

double computational_intensity(const SystemModel& model, StringId k,
                               AppIndex i) noexcept {
  const auto& s = model.strings[static_cast<std::size_t>(k)];
  const auto& a = s.apps[static_cast<std::size_t>(i)];
  return a.avg_time_s() * a.avg_util() / s.period_s;
}

CoefficientTables::CoefficientTables(const SystemModel& model)
    : machines(model.num_machines()) {
  const std::size_t q = model.num_strings();
  app_off.resize(q + 1);
  tran_off.resize(q + 1);
  std::uint32_t apps = 0;
  std::uint32_t trans = 0;
  for (std::size_t k = 0; k < q; ++k) {
    app_off[k] = apps;
    tran_off[k] = trans;
    const auto n = static_cast<std::uint32_t>(model.strings[k].size());
    apps += n;
    trans += n > 0 ? n - 1 : 0;
  }
  app_off[q] = apps;
  tran_off[q] = trans;

  period.resize(q);
  max_latency.resize(q);
  time.resize(apps * machines);
  work.resize(apps * machines);
  machine_delta.resize(apps * machines);
  mbits.resize(apps);
  mbits_per_period.resize(apps);
  intensity.resize(apps);
  for (std::size_t k = 0; k < q; ++k) {
    const auto& s = model.strings[k];
    const double p = s.period_s;
    period[k] = p;
    max_latency[k] = s.max_latency_s;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto& a = s.apps[i];
      const std::size_t row = app_off[k] + i;
      for (std::size_t j = 0; j < machines; ++j) {
        time[row * machines + j] = a.nominal_time_s[j];
        work[row * machines + j] = a.cpu_work(j);
      }
      mbits[row] = model::kbytes_to_megabits(a.output_kbytes);
      // O[i]/P[k]: minimum average bandwidth demand over the period (Mb/s).
      mbits_per_period[row] = mbits[row] / p;
      intensity[row] = computational_intensity(model, static_cast<StringId>(k),
                                               static_cast<AppIndex>(i));
    }
    // (t[i,j] * u[i,j]) / P[k]: the minimum average CPU share that lets a_i^k
    // finish each data set within one period.  One contiguous pass per string
    // so the divisions vectorize.
    for (std::size_t x = app_off[k] * machines; x < app_off[k + 1] * machines; ++x) {
      machine_delta[x] = work[x] / p;
    }
  }
}

UtilizationState::UtilizationState(const SystemModel& model)
    : model_(&model), coef_(std::make_shared<const CoefficientTables>(model)) {
  const std::size_t m = model.num_machines();
  // Header first (fixed offsets), pool slabs grow past it at the tip.  Sizing
  // the arena for the header plus one pool entry per application keeps slab
  // growth off the common path without reserving for the worst case.
  std::size_t apps = 0;
  for (const auto& s : model.strings) apps += s.size();
  arena_ = util::Arena((m + m * m + apps) * sizeof(double));
  machine_util_ = arena_.alloc<double>(m);
  route_util_ = arena_.alloc<double>(m * m);
  slabs_ = arena_.alloc<Slab>(m + m * m);
  assert(route_util_.offset == machine_util_.offset + m * sizeof(double));  // util_of
  // A string touches at most one machine per app and one route per transfer.
  trail_.reserve(coef_->app_off[model.num_strings()] +
                 coef_->tran_off[model.num_strings()]);
  staged_.resize(m + m * m);
}

UtilizationState UtilizationState::from_allocation(const SystemModel& model,
                                                   const Allocation& alloc) {
  UtilizationState state(model);
  for (std::size_t k = 0; k < alloc.num_strings(); ++k) {
    if (alloc.deployed(static_cast<StringId>(k))) {
      state.add_string(alloc, static_cast<StringId>(k));
    }
  }
  return state;
}

UtilizationState UtilizationState::from_allocation(
    const SystemModel& model, const Allocation& alloc,
    std::span<const StringId> deploy_order) {
  UtilizationState state(model);
  for (const StringId k : deploy_order) {
    assert(alloc.deployed(k));
    state.add_string(alloc, k);
  }
  return state;
}

double UtilizationState::machine_delta(StringId k, AppIndex i,
                                       MachineId j) const noexcept {
  const CoefficientTables& c = *coef_;
  return c.machine_delta[c.app_machine(c.app(k, i), j)];
}

double UtilizationState::route_delta(StringId k, AppIndex i, MachineId j1,
                                     MachineId j2) const noexcept {
  if (j1 == j2) return 0.0;  // intra-machine: infinite bandwidth
  // (O[i]/P[k]) / w[j1,j2]: minimum average bandwidth share over the period.
  return coef_->mbits_per_period[coef_->app(k, i)] /
         model_->network.bandwidth_mbps(j1, j2);
}

TSCE_HOT void UtilizationState::store_to(std::size_t resource, AppRef ref) {
  assert(staged_[resource].epoch == stage_epoch_);
  // Copy the slab descriptor out first: growing the pool may move the arena's
  // backing buffer, which would invalidate a reference into it.
  Slab s = arena_.view(slabs_)[resource];
  double& u = util_of(resource);
  trail_.push_back({static_cast<std::uint32_t>(resource), s, u});
  u = staged_[resource].util;
  if (s.size == s.cap) {
    const std::uint32_t new_cap = s.cap == 0 ? 4 : s.cap * 2;
    const util::ArenaSpan<AppRef> moved =
        arena_.grow(util::ArenaSpan<AppRef>{s.begin, s.cap}, new_cap);
    s.begin = moved.offset;
    s.cap = new_cap;
  }
  arena_.view(util::ArenaSpan<AppRef>{s.begin, s.cap})[s.size] = ref;
  ++s.size;
  arena_.view(slabs_)[resource] = s;
}

TSCE_HOT void UtilizationState::add_string(const Allocation& alloc, StringId k) {
  const std::span<const MachineId> assignment = alloc.assignment(k);
  (void)fold_string(k, assignment, /*stop_on_overload=*/false);
  store_staged(k, assignment);
}

TSCE_HOT bool UtilizationState::stage(StringId k,
                                      std::span<const MachineId> assignment) noexcept {
  return fold_string(k, assignment, /*stop_on_overload=*/true);
}

TSCE_HOT double UtilizationState::fold(std::size_t resource, double delta) noexcept {
  StagedSum& s = staged_[resource];
  if (s.epoch != stage_epoch_) {
    s.epoch = stage_epoch_;
    s.util = util_of(resource);
  }
  s.util += delta;
  return s.util;
}

TSCE_HOT bool UtilizationState::fold_string(StringId k,
                                            std::span<const MachineId> assignment,
                                            bool stop_on_overload) noexcept {
  // A new epoch voids every staged sum at once; only a wrap re-zeroes stamps.
  if (++stage_epoch_ == 0) {
    for (StagedSum& s : staged_) s.epoch = 0;
    stage_epoch_ = 1;
  }
  // Machines and routes are distinct entries, so folding all apps before all
  // transfers still adds each resource's terms in app order.  Every term is
  // >= 0 in a valid model and rounding is monotone, so a partial sum over
  // capacity stays over it: the test after each term is, at each resource's
  // last term, the test of its full sum, and the first failure decides the
  // verdict.
  bool fits = true;
  const std::size_t n = assignment.size();
  for (std::size_t i = 0; i < n; ++i) {
    const MachineId j = assignment[i];
    assert(j != model::kUnassigned);
    fits = within(fold(static_cast<std::size_t>(j),
                       machine_delta(k, static_cast<AppIndex>(i), j)),
                  1.0) && fits;
    if (!fits && stop_on_overload) return false;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const MachineId j1 = assignment[i];
    const MachineId j2 = assignment[i + 1];
    if (j1 == j2) continue;
    fits = within(fold(num_machines() + route_index(j1, j2),
                       route_delta(k, static_cast<AppIndex>(i), j1, j2)),
                  1.0) && fits;
    if (!fits && stop_on_overload) return false;
  }
  return fits;
}

TSCE_HOT void UtilizationState::store_staged(StringId k,
                                             std::span<const MachineId> assignment) {
  // One trail entry and slab append per touch, each app's before its
  // transfer's.  A resource touched twice is set to its final sum at the
  // first touch, so its second trail entry holds that sum; undo writes
  // entries back newest first and lands on the oldest.
  const std::size_t n = assignment.size();
  for (std::size_t i = 0; i < n; ++i) {
    const MachineId j = assignment[i];
    const AppRef ref{k, static_cast<AppIndex>(i)};
    store_to(static_cast<std::size_t>(j), ref);
    if (i + 1 < n && j != assignment[i + 1]) {
      store_to(num_machines() + route_index(j, assignment[i + 1]), ref);
    }
  }
}

TSCE_HOT void UtilizationState::undo_to(Mark m) noexcept {
  // Newest first, so a resource touched twice lands on its oldest value.  A
  // slab that did not grow had ref written at its old size, a slot that held
  // zero bytes (slab slots past the size are zero: alloc and grow zero them,
  // and this loop re-zeroes what it pops); a slab that grew was either
  // extended past the marked tip or moved to a fresh region past it, leaving
  // its old region unwritten.  Dropping the tip discards the rest.
  for (std::size_t t = trail_.size(); t-- > m.trail;) {
    const TrailEntry& e = trail_[t];
    util_of(e.resource) = e.util;
    arena_.view(slabs_)[e.resource] = e.slab;
    if (e.slab.size < e.slab.cap) {
      arena_.view(util::ArenaSpan<AppRef>{e.slab.begin, e.slab.cap})[e.slab.size] =
          AppRef{};
    }
  }
  trail_.resize(m.trail);
  arena_.rewind(m.tip);
}

double UtilizationState::max_machine_util() const noexcept {
  double best = 0.0;
  for (double u : arena_.view(machine_util_)) best = std::max(best, u);
  return best;
}

TSCE_HOT double UtilizationState::slackness() const noexcept {
  // machine_util_ and route_util_ are adjacent in the arena, so these two
  // scans stream one contiguous block of M + M*M doubles (auto-vectorized:
  // plain min-reduction over flat arrays).
  double min_slack = 1.0;
  for (double u : arena_.view(machine_util_)) min_slack = std::min(min_slack, 1.0 - u);
  for (double u : arena_.view(route_util_)) min_slack = std::min(min_slack, 1.0 - u);
  return min_slack;
}

}  // namespace tsce::analysis

#include "analysis/session.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "analysis/feasibility.hpp"
#include "analysis/tightness.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "util/hot.hpp"

namespace tsce::analysis {

using model::Allocation;
using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

namespace {

/// Feasibility-rejection and rewind tallies, by cause.  Handles are resolved
/// once; updates are thread-local (see obs/metrics.hpp).
struct SessionMetrics {
  obs::Counter& reject_utilization;  ///< stage one: resource over 100%
  obs::Counter& reject_throughput;   ///< stage two: eq. (1) period overrun
  obs::Counter& reject_latency;      ///< stage two: eq. (1) latency overrun
  obs::Counter& uncommit_batches;
  obs::Counter& uncommit_strings;
  obs::Histogram& commit_latency_ns;    ///< wall clock per try_commit call
  obs::Histogram& uncommit_latency_ns;  ///< wall clock per uncommit_all call

  static SessionMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static SessionMetrics m{reg.counter(obs::names::kSessionRejectUtilization),
                            reg.counter(obs::names::kSessionRejectThroughput),
                            reg.counter(obs::names::kSessionRejectLatency),
                            reg.counter(obs::names::kSessionUncommitBatches),
                            reg.counter(obs::names::kSessionUncommitStrings),
                            reg.histogram(obs::names::kSessionCommitLatencyNs),
                            reg.histogram(obs::names::kSessionUncommitLatencyNs)};
    return m;
  }
};

/// FrKind::kCommitReject violation-class payload.
enum : std::uint64_t {
  kFrViolationUtilization = 1,
  kFrViolationThroughput = 2,
  kFrViolationLatency = 3,
};

}  // namespace

AllocationSession::AllocationSession(const SystemModel& model, PriorityRule rule)
    : model_(&model),
      rule_(rule),
      alloc_(model),
      util_(model),
      t_of_(model.num_strings(), std::numeric_limits<double>::quiet_NaN()) {
  const std::size_t q = model.num_strings();
  const CoefficientTables& c = util_.coefficients();
  const std::uint32_t apps = c.app_off[q];
  const std::uint32_t trans = c.tran_off[q];
  comp_.assign(apps, std::numeric_limits<double>::quiet_NaN());
  tran_.assign(trans, std::numeric_limits<double>::quiet_NaN());
  touched_machines_.reserve(model.num_machines());
  touched_routes_.reserve(model.num_machines() * model.num_machines());
  affected_strings_.reserve(q);
  affected_stamp_.assign(q, 0);
  comp_journal_.reserve(apps);
  tran_journal_.reserve(trans);
}

void AllocationSession::snapshot_into(SessionSnapshot& out) const {
  out.alloc = alloc_;  // flat vectors: buffer-reusing copies
  util_.snapshot_into(out.util);
  out.t_of = t_of_;
  out.comp = comp_;
  out.tran = tran_;
}

void AllocationSession::restore_from(const SessionSnapshot& snap) {
  alloc_ = snap.alloc;
  util_.restore_from(snap.util);
  t_of_ = snap.t_of;
  comp_ = snap.comp;
  tran_ = snap.tran;
}

std::size_t AllocationSession::state_bytes() const noexcept {
  return util_.state_bytes() +
         (t_of_.size() + comp_.size() + tran_.size()) * sizeof(double) +
         util_.coefficients().app_off.back() * sizeof(MachineId) +
         t_of_.size();  // alloc flat + flags
}

void AllocationSession::clear_affected() {
  affected_strings_.clear();
  if (++affected_epoch_ == 0) {  // wrapped: no stale stamp may match epoch 1
    std::fill(affected_stamp_.begin(), affected_stamp_.end(), 0);
    affected_epoch_ = 1;
  }
}

inline void AllocationSession::note_affected(StringId z) {
  std::uint32_t& stamp = affected_stamp_[static_cast<std::size_t>(z)];
  if (stamp == affected_epoch_) return;
  stamp = affected_epoch_;
  affected_strings_.push_back(z);  // reserved to Q: never reallocates
}

void AllocationSession::note_touched(StringId k) {
  const auto n = static_cast<AppIndex>(model_->strings[static_cast<std::size_t>(k)].size());
  for (AppIndex i = 0; i < n; ++i) {
    const MachineId j = alloc_.machine_of(k, i);
    if (std::find(touched_machines_.begin(), touched_machines_.end(), j) ==
        touched_machines_.end()) {
      touched_machines_.push_back(j);
    }
    if (i + 1 < n) {
      const MachineId j2 = alloc_.machine_of(k, i + 1);
      const auto route = std::make_pair(j, j2);
      if (j != j2 && std::find(touched_routes_.begin(), touched_routes_.end(),
                               route) == touched_routes_.end()) {
        touched_routes_.push_back(route);
      }
    }
  }
}

void AllocationSession::uncommit_all(std::span<const StringId> ks) {
  const std::uint64_t t0 = obs::clock_ticks();
  SessionMetrics& metrics = SessionMetrics::get();
  metrics.uncommit_batches.add(1);
  metrics.uncommit_strings.add(ks.size());
  // Union of resources the removed strings occupied (collected while the
  // allocation still holds their assignments).
  touched_machines_.clear();
  touched_routes_.clear();
  for (const StringId k : ks) {
    assert(alloc_.deployed(k));
    note_touched(k);
  }

  util_.remove_strings(alloc_, ks);
  for (const StringId k : ks) {
    alloc_.clear_string(k);
    t_of_[static_cast<std::size_t>(k)] = std::numeric_limits<double>::quiet_NaN();
  }

  // One estimate refresh per affected survivor, against the final state.
  clear_affected();
  for (const MachineId j : touched_machines_) {
    for (const AppRef& ref : util_.apps_on(j)) note_affected(ref.k);
  }
  for (const auto& [j1, j2] : touched_routes_) {
    for (const AppRef& ref : util_.transfers_on(j1, j2)) note_affected(ref.k);
  }
  for (const StringId z : affected_strings_) estimate_string<false>(z);

  const std::uint64_t ns = obs::ticks_to_ns(obs::clock_ticks() - t0);
  metrics.uncommit_latency_ns.record(ns);
  obs::fr_record(obs::FrKind::kUncommit, ns, ks.size());
}

void AllocationSession::reset() {
  alloc_ = Allocation(*model_);
  util_ = UtilizationState(*model_);
  std::fill(t_of_.begin(), t_of_.end(), std::numeric_limits<double>::quiet_NaN());
  // Estimate slots of undeployed strings are never read (refresh precedes
  // every read), but reset is cold — scrub them so a stale value can't hide.
  std::fill(comp_.begin(), comp_.end(), std::numeric_limits<double>::quiet_NaN());
  std::fill(tran_.begin(), tran_.end(), std::numeric_limits<double>::quiet_NaN());
}

TSCE_HOT bool AllocationSession::try_commit(StringId k,
                                            const std::vector<MachineId>& assignment) {
  const std::uint64_t t0 = obs::clock_ticks();
  const auto ku = static_cast<std::size_t>(k);
  assert(!alloc_.deployed(k));
  assert(assignment.size() == model_->strings[ku].size());

  // Record the tentative assignment.  Stale journal entries from a previous
  // commit would poison a stage-one rollback, so clear them up front.
  comp_journal_.clear();
  tran_journal_.clear();
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assert(assignment[i] != model::kUnassigned);
    alloc_.assign(k, static_cast<AppIndex>(i), assignment[i]);
  }
  alloc_.set_deployed(k, true);
  util_.add_string(alloc_, k);

  // Resources touched by this string.
  touched_machines_.clear();
  touched_routes_.clear();
  note_touched(k);

  // Stage one on touched resources only (others are unchanged).
  bool ok = true;
  for (const MachineId j : touched_machines_) {
    if (!within(util_.machine_util(j), 1.0)) ok = false;
  }
  for (const auto& [j1, j2] : touched_routes_) {
    if (!within(util_.route_util(j1, j2), 1.0)) ok = false;
  }

  std::uint64_t fr_violation = kFrViolationUtilization;
  if (!ok) {
    SessionMetrics::get().reject_utilization.add(1);
  } else {
    t_of_[ku] = priority_value(*model_, alloc_, k, rule_);
    const ConstraintViolation violation = stage_two_after_add(k);
    ok = violation == ConstraintViolation::kNone;
    if (violation == ConstraintViolation::kThroughput) {
      SessionMetrics::get().reject_throughput.add(1);
      fr_violation = kFrViolationThroughput;
    } else if (violation == ConstraintViolation::kLatency) {
      SessionMetrics::get().reject_latency.add(1);
      fr_violation = kFrViolationLatency;
    }
  }

  if (!ok) {
    // Roll back: remove the string and restore the estimate slots stage two
    // delta-updated from the journals.  Walking backwards makes repeated
    // touches of one slot land on its oldest (pre-commit) value, so the
    // restore is bit-exact; k's own slots are left stale (unreadable until
    // its next deploy refreshes them).
    util_.remove_string(alloc_, k);
    alloc_.clear_string(k);
    t_of_[ku] = std::numeric_limits<double>::quiet_NaN();
    for (auto it = comp_journal_.rbegin(); it != comp_journal_.rend(); ++it) {
      comp_[it->first] = it->second;
    }
    for (auto it = tran_journal_.rbegin(); it != tran_journal_.rend(); ++it) {
      tran_[it->first] = it->second;
    }
    SessionMetrics::get().commit_latency_ns.record(
        obs::ticks_to_ns(obs::clock_ticks() - t0));
    obs::fr_record(obs::FrKind::kCommitReject, static_cast<std::uint64_t>(k),
                   fr_violation);
    return false;
  }
  SessionMetrics::get().commit_latency_ns.record(
      obs::ticks_to_ns(obs::clock_ticks() - t0));
  return true;
}

template <bool kCommit>
TSCE_HOT double AllocationSession::scan_comp(StringId k, std::size_t app,
                                             MachineId j) {
  // Eq. (5): each higher-priority data set of app p (string z) on the same
  // machine delays k by its CPU work t[p,j]*u[p,j], scaled by how many of its
  // periods overlap one of k's (P[k]/P[z]); see Figure 2 cases 1-3.
  //
  // With kCommit, k has just been appended to the slab, and a resident z that
  // k preempts gains k's term.  A full re-sum of z walks the slab in order
  // and k's entries sit at its tail, so re-sum = (cached value) + (k's terms,
  // in k-app order) by left-to-right float associativity: adding the term to
  // the cached slot is bit-exact.  Old slot values are journaled first so a
  // stage-two rejection can restore them exactly.  A resident that preempts
  // k never waits on k, so its slot is untouched.
  const CoefficientTables& c = util_.coefficients();
  const auto ku = static_cast<std::size_t>(k);
  const double t_k = t_of_[ku];
  const double p_k = c.period[ku];
  const std::size_t kj = c.app_machine(app, j);
  const double work_k = c.work[kj];
  double t = c.time[kj];
  for (const AppRef& ref : util_.apps_on(j)) {
    if (ref.k == k) continue;  // same-string apps share one tightness value
    const auto zu = static_cast<std::size_t>(ref.k);
    const double t_z = t_of_[zu];
    if (kCommit && higher_priority(t_k, k, t_z, ref.k)) {
      note_affected(ref.k);
      const std::uint32_t slot = c.app_off[zu] + ref.i;
      comp_journal_.emplace_back(slot, comp_[slot]);
      comp_[slot] += (c.period[zu] / p_k) * work_k;
    } else if (higher_priority(t_z, ref.k, t_k, k)) {
      t += (p_k / c.period[zu]) * c.work[c.app_machine(c.app(ref.k, ref.i), j)];
    }
  }
  return t;
}

template <bool kCommit>
TSCE_HOT double AllocationSession::scan_tran(StringId k, std::size_t app,
                                             MachineId j1, MachineId j2) {
  // Eq. (6), the transfer analogue of scan_comp on route j1->j2.
  if (j1 == j2) return 0.0;  // intra-machine: infinite bandwidth
  const CoefficientTables& c = util_.coefficients();
  const auto ku = static_cast<std::size_t>(k);
  const double t_k = t_of_[ku];
  const double p_k = c.period[ku];
  const double w = model_->network.bandwidth_mbps(j1, j2);
  const double mbits_k = c.mbits[app];
  double t = mbits_k / w;
  for (const AppRef& ref : util_.transfers_on(j1, j2)) {
    if (ref.k == k) continue;
    const auto zu = static_cast<std::size_t>(ref.k);
    const double t_z = t_of_[zu];
    if (kCommit && higher_priority(t_k, k, t_z, ref.k)) {
      note_affected(ref.k);
      const std::uint32_t slot = c.tran_off[zu] + ref.i;
      tran_journal_.emplace_back(slot, tran_[slot]);
      tran_[slot] += (c.period[zu] / p_k) * mbits_k / w;
    } else if (higher_priority(t_z, ref.k, t_k, k)) {
      t += (p_k / c.period[zu]) * c.mbits[c.app(ref.k, ref.i)] / w;
    }
  }
  return t;
}

template <bool kCommit>
TSCE_HOT void AllocationSession::estimate_string(StringId z) {
  // Full per-string estimate: strings are short (<= ~10 apps), so
  // recomputing the whole string is cheaper than tracking which of its apps
  // were touched.  The flat slices are fixed-size (prefix-sum layout), so
  // this writes in place — no resize, no allocation.
  const CoefficientTables& c = util_.coefficients();
  const auto zu = static_cast<std::size_t>(z);
  const std::size_t n = model_->strings[zu].size();
  const std::size_t app0 = c.app_off[zu];
  double* const comp = comp_.data() + app0;
  double* const tran = tran_.data() + c.tran_off[zu];
  for (std::size_t i = 0; i < n; ++i) {
    const MachineId j = alloc_.machine_of(z, static_cast<AppIndex>(i));
    comp[i] = scan_comp<kCommit>(z, app0 + i, j);
    if (i + 1 < n) {
      const MachineId j2 = alloc_.machine_of(z, static_cast<AppIndex>(i + 1));
      tran[i] = scan_tran<kCommit>(z, app0 + i, j, j2);
    }
  }
}

TSCE_HOT ConstraintViolation AllocationSession::stage_two_after_add(StringId k) {
  // Only two kinds of strings see their estimates change when k commits:
  // k itself, and the residents of k's resources that k preempts.  A string
  // with unchanged estimates cannot newly violate eq. (1) (it passed when it
  // was committed), so it needs neither a refresh nor a re-check.  One scan
  // per resource serves both (estimate_string<true>).
  clear_affected();
  note_affected(k);
  estimate_string<true>(k);
  for (const StringId z : affected_strings_) {
    const ConstraintViolation violation = constraint_violation(z);
    if (violation != ConstraintViolation::kNone) return violation;
  }
  return ConstraintViolation::kNone;
}

TSCE_HOT ConstraintViolation AllocationSession::constraint_violation(
    StringId z) const noexcept {
  const CoefficientTables& coef = util_.coefficients();
  const auto zu = static_cast<std::size_t>(z);
  const double period = coef.period[zu];
  double latency = 0.0;
  for (const double c : comp_estimates(z)) {
    if (!within(c, period)) return ConstraintViolation::kThroughput;
    latency += c;
  }
  for (const double t : tran_estimates(z)) {
    if (!within(t, period)) return ConstraintViolation::kThroughput;
    latency += t;
  }
  return within(latency, coef.max_latency[zu]) ? ConstraintViolation::kNone
                                               : ConstraintViolation::kLatency;
}

}  // namespace tsce::analysis

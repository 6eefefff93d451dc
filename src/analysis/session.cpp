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

using model::AppIndex;
using model::MachineId;
using model::StringId;
using model::SystemModel;

namespace {

/// Feasibility-rejection tallies, by cause, and commit latency.  Handles are
/// resolved once; updates are thread-local (see obs/metrics.hpp).
struct SessionMetrics {
  obs::Counter& reject_utilization;  ///< stage one: resource over 100%
  obs::Counter& reject_throughput;   ///< stage two: eq. (1) period overrun
  obs::Counter& reject_latency;      ///< stage two: eq. (1) latency overrun
  obs::Histogram& commit_latency_ns;  ///< wall clock per try_commit call

  static SessionMetrics& get() {
    auto& reg = obs::MetricsRegistry::instance();
    static SessionMetrics m{reg.counter(obs::names::kSessionRejectUtilization),
                            reg.counter(obs::names::kSessionRejectThroughput),
                            reg.counter(obs::names::kSessionRejectLatency),
                            reg.histogram(obs::names::kSessionCommitLatencyNs)};
    return m;
  }
};

/// The value of every slot of an undeployed string (t_of_, comp_, tran_).
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

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
      t_of_(model.num_strings(), kNaN) {
  const std::size_t q = model.num_strings();
  const CoefficientTables& c = util_.coefficients();
  const std::uint32_t apps = c.app_off[q];
  const std::uint32_t trans = c.tran_off[q];
  comp_.assign(apps, kNaN);
  tran_.assign(trans, kNaN);
  affected_strings_.reserve(q);
  affected_stamp_.assign(q, 0);
  comp_journal_.reserve(apps);
  tran_journal_.reserve(trans);
  trail_strings_.reserve(q);
}

AllocationSession::Mark AllocationSession::mark() const noexcept {
  return {util_.mark(), static_cast<std::uint32_t>(trail_strings_.size()),
          static_cast<std::uint32_t>(comp_journal_.size()),
          static_cast<std::uint32_t>(tran_journal_.size())};
}

TSCE_HOT void AllocationSession::undo_to(const Mark& m) noexcept {
  // Journals first, newest first, so a slot touched twice lands on its
  // oldest value.  A journaled slot of a string committed after the mark
  // then holds its value from right after that string's own commit, and the
  // loop below overwrites it with NaN, as for every undeployed string.  When
  // no string deployed at the mark is left (the empty prefix of a fresh
  // session), every journal entry is such a slot, so none is replayed.
  if (m.strings + image_strings_ != 0) {
    for (std::size_t t = comp_journal_.size(); t-- > m.comp_journal;) {
      comp_[comp_journal_[t].slot] = comp_journal_[t].old;
    }
    for (std::size_t t = tran_journal_.size(); t-- > m.tran_journal;) {
      tran_[tran_journal_[t].slot] = tran_journal_[t].old;
    }
  }
  comp_journal_.resize(m.comp_journal);
  tran_journal_.resize(m.tran_journal);
  const CoefficientTables& c = util_.coefficients();
  for (std::size_t t = m.strings; t < trail_strings_.size(); ++t) {
    const StringId k = trail_strings_[t];
    const auto ku = static_cast<std::size_t>(k);
    alloc_.clear_string(k);
    t_of_[ku] = kNaN;
    std::fill(comp_.begin() + c.app_off[ku], comp_.begin() + c.app_off[ku + 1], kNaN);
    std::fill(tran_.begin() + c.tran_off[ku], tran_.begin() + c.tran_off[ku + 1], kNaN);
  }
  trail_strings_.resize(m.strings);
  util_.undo_to(m.util);
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
  comp_journal_.clear();
  tran_journal_.clear();
  trail_strings_.clear();
  image_strings_ = static_cast<std::uint32_t>(alloc_.num_deployed());
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

TSCE_HOT bool AllocationSession::try_commit(StringId k,
                                            const std::vector<MachineId>& assignment) {
  const std::uint64_t t0 = obs::clock_ticks();
  const auto ku = static_cast<std::size_t>(k);
  assert(!alloc_.deployed(k));
  assert(assignment.size() == model_->strings[ku].size());

  // Record the tentative assignment on the undo trail.  The utilization
  // state is written only once both stages pass, so a rejection, which
  // undoes to the mark taken here, leaves it untouched.
  const Mark start = mark();
  trail_strings_.push_back(k);  // reserved to Q: never reallocates
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assert(assignment[i] != model::kUnassigned);
    alloc_.assign(k, static_cast<AppIndex>(i), assignment[i]);
  }
  alloc_.set_deployed(k, true);

  // Stage one on what-if sums of the resources k touches (others are
  // unchanged); an accepted commit stores those sums.
  bool ok = util_.stage(k, assignment);
  std::uint64_t fr_violation = kFrViolationUtilization;
  if (!ok) {
    SessionMetrics::get().reject_utilization.add(1);
  } else {
    t_of_[ku] = priority_value(*model_, alloc_, k, rule_);
    const ConstraintViolation violation = stage_two_if_added(k);
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
    // Roll back k's assignment, priority and estimate slots and the
    // residents' slots stage two journaled: the session is bit-identical to
    // its pre-commit state.
    undo_to(start);
    SessionMetrics::get().commit_latency_ns.record(
        obs::ticks_to_ns(obs::clock_ticks() - t0));
    obs::fr_record(obs::FrKind::kCommitReject, static_cast<std::uint64_t>(k),
                   fr_violation);
    return false;
  }
  util_.store_staged(k, assignment);
  SessionMetrics::get().commit_latency_ns.record(
      obs::ticks_to_ns(obs::clock_ticks() - t0));
  return true;
}

TSCE_HOT double AllocationSession::scan_comp(StringId k, std::size_t app,
                                             MachineId j) {
  // Eq. (5): each higher-priority data set of app p (string z) on the same
  // machine delays k by its CPU work t[p,j]*u[p,j], scaled by how many of its
  // periods overlap one of k's (P[k]/P[z]); see Figure 2 cases 1-3.
  //
  // The slab holds the residents only: k is appended to its tail once the
  // commit passes.  A resident z that k preempts gains k's term.  A full
  // re-sum of z walks the slab in order and k's entries will sit at its
  // tail, so re-sum = (cached value) + (k's terms, in k-app order) by
  // left-to-right float associativity: adding the term to the cached slot is
  // bit-exact.  Old slot values are journaled first so a stage-two rejection
  // can restore them exactly.  A resident that preempts k never waits on k,
  // so its slot is untouched.
  const CoefficientTables& c = util_.coefficients();
  const auto ku = static_cast<std::size_t>(k);
  const double t_k = t_of_[ku];
  const double p_k = c.period[ku];
  const std::size_t kj = c.app_machine(app, j);
  const double work_k = c.work[kj];
  double t = c.time[kj];
  for (const AppRef& ref : util_.apps_on(j)) {
    const auto zu = static_cast<std::size_t>(ref.k);
    const double t_z = t_of_[zu];
    if (higher_priority(t_k, k, t_z, ref.k)) {
      note_affected(ref.k);
      const std::uint32_t slot = c.app_off[zu] + ref.i;
      comp_journal_.push_back({slot, comp_[slot]});
      comp_[slot] += (c.period[zu] / p_k) * work_k;
    } else if (higher_priority(t_z, ref.k, t_k, k)) {
      t += (p_k / c.period[zu]) * c.work[c.app_machine(c.app(ref.k, ref.i), j)];
    }
  }
  return t;
}

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
    const auto zu = static_cast<std::size_t>(ref.k);
    const double t_z = t_of_[zu];
    if (higher_priority(t_k, k, t_z, ref.k)) {
      note_affected(ref.k);
      const std::uint32_t slot = c.tran_off[zu] + ref.i;
      tran_journal_.push_back({slot, tran_[slot]});
      tran_[slot] += (c.period[zu] / p_k) * mbits_k / w;
    } else if (higher_priority(t_z, ref.k, t_k, k)) {
      t += (p_k / c.period[zu]) * c.mbits[c.app(ref.k, ref.i)] / w;
    }
  }
  return t;
}

TSCE_HOT ConstraintViolation AllocationSession::stage_two_if_added(StringId k) {
  // Only two kinds of strings see their estimates change when k commits:
  // k itself, and the residents of k's resources that k preempts.  A string
  // with unchanged estimates cannot newly violate eq. (1) (it passed when it
  // was committed), so it needs neither a refresh nor a re-check.  One scan
  // per resource serves both.
  clear_affected();
  note_affected(k);
  // Full estimate of k: strings are short (<= ~10 apps).  The flat slices
  // are fixed-size (prefix-sum layout), so this writes in place — no resize,
  // no allocation.
  const CoefficientTables& c = util_.coefficients();
  const auto ku = static_cast<std::size_t>(k);
  const std::size_t n = model_->strings[ku].size();
  const std::size_t app0 = c.app_off[ku];
  double* const comp = comp_.data() + app0;
  double* const tran = tran_.data() + c.tran_off[ku];
  for (std::size_t i = 0; i < n; ++i) {
    const MachineId j = alloc_.machine_of(k, static_cast<AppIndex>(i));
    comp[i] = scan_comp(k, app0 + i, j);
    if (i + 1 < n) {
      const MachineId j2 = alloc_.machine_of(k, static_cast<AppIndex>(i + 1));
      tran[i] = scan_tran(k, app0 + i, j, j2);
    }
  }
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

/// \file session.hpp
/// Incremental sequential-allocation session.
///
/// The ordering heuristics (MWF, TF, PSG decode) deploy strings one at a time
/// and must re-run the two-stage feasibility analysis after every string.
/// Re-checking the whole system from scratch is O(Q * A^2); AllocationSession
/// exploits the fact that committing one string only perturbs the resources
/// it touches — stage one folds the candidate into what-if sums of the
/// touched resources only (UtilizationState::stage, one fold per touched
/// resource) and stage two re-estimates only resident applications of
/// touched machines/routes (higher-priority estimates are unchanged by
/// construction of eqs. 5-6).  The candidate enters the utilization state
/// only after both stages pass, by storing the staged sums
/// (UtilizationState::store_staged), so a failed commit undoes just its assignment,
/// its priority and estimate slots and the resident estimates stage two
/// journaled, leaving the previous feasible intermediate mapping intact (the
/// MWF/TF termination rule) byte for byte.
///
/// The same undo goes back any number of commits (DESIGN.md §12).  The
/// session keeps an undo trail since its last restore: the committed string
/// ids, the stage-two journals of every commit, and the utilization state's
/// own trail of touched resources.  mark() names a point on it, and
/// undo_to(mark) writes the journals back newest first (not at all when no
/// string deployed at the mark is left), returns the undone strings'
/// assignment, priority and estimate slots to unassigned / NaN and undoes
/// the utilization state — bit for bit the session at the mark, at a cost
/// proportional to what was committed since.  A rejected try_commit is
/// undo_to(the mark taken at its start).
///
/// Stage two makes one pass over each resident list the new string k
/// touches (DESIGN.md §12): a resident that k preempts gets k's eq. (5)-(6)
/// term added to its cached slot, and every other resident adds its term to
/// k's own running estimate, in slab order — the same sums, in the same
/// order, as a from-scratch estimate of the state with k appended.  Affected
/// strings are deduplicated by a per-string epoch stamp, keeping first-noted
/// order, and every coefficient comes from the utilization state's flat
/// CoefficientTables rather than the model's per-app vectors.
///
/// Estimate storage is SoA (DESIGN.md §12): one flat double array for all
/// eq. (5) computation estimates and one for all eq. (6) transfer estimates,
/// indexed by prefix sums over string lengths — no per-string vectors, so the
/// steady-state commit/rollback path never allocates.  The whole session
/// state also snapshots into a SessionSnapshot and restores back with a
/// handful of memcpys, bit-exactly; restoring clears the undo trail.  The
/// prefix-reuse decode and the exact search rewind by undo_to.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/metrics.hpp"
#include "analysis/priority.hpp"
#include "analysis/utilization.hpp"
#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"
#include "util/arena.hpp"

namespace tsce::analysis {

/// Which eq. (1) constraint a deployed string violates under the current
/// estimates: a per-app/transfer period overrun (throughput) or an end-to-end
/// latency overrun.  Rejection counts per kind are exported through
/// obs::MetricsRegistry ("session.reject.*").
enum class ConstraintViolation { kNone, kThroughput, kLatency };

/// Bit-exact byte image of an AllocationSession.  All members are flat
/// arrays, so snapshot/restore/copy are memcpys; in steady state (buffers
/// already at working size) the round trip is allocation-free.  A snapshot
/// may only be restored into a session built from the same SystemModel.
struct SessionSnapshot {
  model::Allocation alloc;
  util::ArenaSnapshot util;
  std::vector<double> t_of;
  std::vector<double> comp;
  std::vector<double> tran;
};

class AllocationSession {
 public:
  explicit AllocationSession(
      const model::SystemModel& model,
      PriorityRule rule = PriorityRule::kRelativeTightness);

  /// Attempts to deploy string \p k with the per-app machine \p assignment
  /// (size n_k, no kUnassigned entries).  Runs the two-stage feasibility
  /// analysis on the resulting intermediate mapping; on success the string is
  /// committed and true is returned, otherwise the session state is unchanged
  /// (its snapshot bytes and undo trail included) and false is returned.
  bool try_commit(model::StringId k, const std::vector<model::MachineId>& assignment);

  /// A point on the undo trail: the committed-string count, the journal
  /// lengths and the utilization state's mark.  Valid until the session is
  /// undone past it or restored.
  struct Mark {
    UtilizationState::Mark util;
    std::uint32_t strings = 0;
    std::uint32_t comp_journal = 0;
    std::uint32_t tran_journal = 0;
  };
  [[nodiscard]] Mark mark() const noexcept;
  /// Undoes every commit since \p m, newest first: afterwards the session is
  /// bit-identical to the session when \p m was taken.
  void undo_to(const Mark& m) noexcept;

  /// Copies the full session state into \p out (buffers reused — no
  /// allocation once \p out has reached working size).  restore_from() is the
  /// exact inverse: the restored session is bit-identical to the session at
  /// snapshot time, including resident-list order, so it is interchangeable
  /// with a session that replayed the same commit history.  The undo trail
  /// is not part of the image: restore_from() clears it, voiding every mark.
  void snapshot_into(SessionSnapshot& out) const;
  void restore_from(const SessionSnapshot& snap);
  /// Bytes a snapshot copies (utilization arena + flat session arrays).  A
  /// copy of the session also copies its undo trail, which grows with the
  /// commits since the last restore.
  [[nodiscard]] std::size_t state_bytes() const noexcept;

  [[nodiscard]] const model::SystemModel& system() const noexcept { return *model_; }
  [[nodiscard]] const model::Allocation& allocation() const noexcept { return alloc_; }
  [[nodiscard]] const UtilizationState& util() const noexcept { return util_; }

  [[nodiscard]] Fitness fitness() const noexcept {
    return {total_worth(*model_, alloc_), util_.slackness()};
  }

  /// Classifies string \p z against eq. (1) under the current estimates.
  [[nodiscard]] ConstraintViolation constraint_violation(model::StringId z) const noexcept;

  /// Estimated computation times of deployed string k (NaN for undeployed
  /// strings — callers must check deployed() first, as ever).
  [[nodiscard]] std::span<const double> comp_estimates(model::StringId k) const noexcept {
    const auto& off = util_.coefficients().app_off;
    const auto ku = static_cast<std::size_t>(k);
    return {comp_.data() + off[ku], off[ku + 1] - off[ku]};
  }
  [[nodiscard]] std::span<const double> tran_estimates(model::StringId k) const noexcept {
    const auto& off = util_.coefficients().tran_off;
    const auto ku = static_cast<std::size_t>(k);
    return {tran_.data() + off[ku], off[ku + 1] - off[ku]};
  }

 private:
  /// Estimates string k against the residents and delta-updates the ones k
  /// preempts (journaling their old slot values) in one pass per resource,
  /// then checks eq. (1) for each affected string; returns the first
  /// violation found (kNone when all pass).
  [[nodiscard]] ConstraintViolation stage_two_if_added(model::StringId k);
  /// The eq. (5) / eq. (6) kernels: string k's estimate for app row \p app
  /// on machine \p j (route j1->j2), one scan of the resident list;
  /// residents that k preempts get k's term instead.
  double scan_comp(model::StringId k, std::size_t app, model::MachineId j);
  double scan_tran(model::StringId k, std::size_t app, model::MachineId j1,
                   model::MachineId j2);
  /// Starts a new affected set (bumps the stamp epoch).
  void clear_affected();
  /// Appends z to the affected set unless it is already there.
  void note_affected(model::StringId z);

  const model::SystemModel* model_;
  PriorityRule rule_;
  model::Allocation alloc_;
  UtilizationState util_;
  std::vector<double> t_of_;  ///< tightness per deployed string (NaN otherwise)
  /// Flat eq. (5) / eq. (6) estimates, app_off- / tran_off-indexed; an
  /// undeployed string's slots are NaN.
  std::vector<double> comp_;
  std::vector<double> tran_;
  /// Strings whose estimates a commit changed, in first-noted order; a
  /// string is in the set iff its stamp equals the current epoch.
  std::vector<model::StringId> affected_strings_;
  std::vector<std::uint32_t> affected_stamp_;
  std::uint32_t affected_epoch_ = 0;
  /// One journal entry: an estimate slot and its value before stage two
  /// delta-updated it.  A plain struct, so copying a journal is a memmove.
  struct JournalEntry {
    std::uint32_t slot;
    double old;
  };
  /// Undo trail.  Pre-commit values of estimate slots delta-updated by stage
  /// two, for every commit since the last restore, so an undo restores them
  /// bit-exactly (float subtraction would not); and the committed strings in
  /// commit order (a rejected commit's string sits at the tail until undone).
  std::vector<JournalEntry> comp_journal_;
  std::vector<JournalEntry> tran_journal_;
  std::vector<model::StringId> trail_strings_;
  /// Strings deployed in the last restored image (0 for a fresh session):
  /// they are deployed at every mark.
  std::uint32_t image_strings_ = 0;
};

}  // namespace tsce::analysis

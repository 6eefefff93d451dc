/// \file utilization.hpp
/// Machine and communication-route utilization accounting, eqs. (2)-(3).
///
/// UtilizationState supports both batch computation from a complete
/// allocation and incremental addition of single strings, which the
/// sequential heuristics (IMR inside MWF/TF/PSG decode) rely on.  It also
/// tracks which applications/transfers reside on each resource, which the
/// stage-two time estimation reuses.  A candidate string is checked against
/// the state with stage() and, once accepted, stored with store_staged().
/// The state goes back to an earlier point by undo_to() a mark (the undo
/// trail below) or by snapshot restore.
///
/// Stage one (DESIGN.md §12): stage() folds the candidate's terms into a
/// what-if accumulator, one entry per machine and route, in one pass over
/// its apps and one over its transfers.  An epoch stamp starts each entry
/// from the resource's current utilization on its first touch, so nothing
/// is zeroed per call.  Each entry receives k's terms in app order, so every
/// staged sum is bit-identical to a per-term += sequence in app order, and
/// store_staged() writes those sums instead of adding the terms again;
/// add_string() is a full fold, then the store.  The capacity test follows
/// each term: terms are >= 0, so a partial sum over capacity fails the
/// string, and stage() stops there.  The accumulator is sized at
/// construction and lives outside the arena: snapshots do not carry it,
/// copies do.
///
/// Memory layout (DESIGN.md §12): the whole state is one contiguous
/// util::Arena block — flat utilization arrays, a slab table of per-resource
/// (offset, size, capacity) triples, and a CSR-style pool of resident AppRef
/// slabs that grow in place amortized.  Because every internal reference is
/// an arena offset, snapshot()/restore() are single memcpys of the used
/// prefix and are bit-exact.
///
/// Undo trail: add_string() records, for every resource it touches, the
/// resource's old utilization and old slab descriptor; a mark is the trail
/// length plus the arena tip.  undo_to(mark) writes the records back newest
/// first and drops the tip, so the state is bit-identical to the state at the
/// mark, at a cost proportional to the strings added since, not to the
/// state's size.  The trail is not part of the snapshot image; restoring a
/// snapshot clears it.
///
/// Every per-app and per-string factor the hot loops multiply by (t*u, the
/// utilization deltas, output megabits, periods, IMR intensities) is read
/// from CoefficientTables: flat arrays built once per UtilizationState from
/// the model's own formulas, immutable, shared by copies, and kept outside
/// the arena so snapshots stay the size of the mutable state alone.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/allocation.hpp"
#include "model/system_model.hpp"
#include "model/types.hpp"
#include "util/arena.hpp"

namespace tsce::analysis {

/// Reference to application i of string k.
struct AppRef {
  model::StringId k;
  model::AppIndex i;
  friend bool operator==(const AppRef&, const AppRef&) = default;
};

/// Computational intensity t_av[i] * u_av[i] / P[k] of app i of string k,
/// eqs. (8)-(9): the IMR visits applications in decreasing order of it.
[[nodiscard]] double computational_intensity(const model::SystemModel& model,
                                             model::StringId k,
                                             model::AppIndex i) noexcept;

/// Immutable per-model coefficient tables in flat SoA form.  App rows are
/// numbered by prefix sums over string lengths, app(k, i) = app_off[k] + i;
/// per-(app, machine) entries sit at app(k, i) * machines + j, so one app's
/// machine row is contiguous.  Transfer rows use tran_off the same way (the
/// session's eq. (6) slots).  Each value is computed once, by the same
/// expression the model-level helpers use, so reading it is bit-identical to
/// recomputing it.
struct CoefficientTables {
  explicit CoefficientTables(const model::SystemModel& model);

  std::size_t machines = 0;
  std::vector<std::uint32_t> app_off;   ///< prefix sums of string lengths, size Q+1
  std::vector<std::uint32_t> tran_off;  ///< prefix sums of (length - 1), size Q+1
  std::vector<double> period;           ///< P[k], per string
  std::vector<double> max_latency;      ///< Lmax[k], per string
  std::vector<double> time;             ///< t[i,j], per app and machine
  std::vector<double> work;             ///< t[i,j] * u[i,j], per app and machine
  std::vector<double> machine_delta;    ///< t[i,j] * u[i,j] / P[k], per app and machine
  std::vector<double> mbits;            ///< O[i] in megabits, per app
  std::vector<double> mbits_per_period; ///< O[i] / P[k] in megabits, per app
  std::vector<double> intensity;        ///< computational_intensity, per app

  [[nodiscard]] std::size_t app(model::StringId k, model::AppIndex i) const noexcept {
    return app_off[static_cast<std::size_t>(k)] + static_cast<std::size_t>(i);
  }
  [[nodiscard]] std::size_t app_machine(std::size_t app, model::MachineId j) const noexcept {
    return app * machines + static_cast<std::size_t>(j);
  }
};

class UtilizationState {
 public:
  UtilizationState() = default;
  explicit UtilizationState(const model::SystemModel& model);

  /// Builds state for all deployed strings of \p alloc, added in increasing
  /// string-id order.  Every utilization is a left fold over its resident
  /// list, so the result is bit-identical to any history whose surviving
  /// deployment order is 0,1,2,... — histories with a different surviving
  /// order agree only up to float re-association (use the overload below to
  /// compare those bitwise).
  static UtilizationState from_allocation(const model::SystemModel& model,
                                          const model::Allocation& alloc);
  /// As above, but deploys in the given order: the from-scratch rebuild that
  /// is bit-identical to an incrementally maintained state whose surviving
  /// strings were added (or last re-added) in \p deploy_order.
  static UtilizationState from_allocation(
      const model::SystemModel& model, const model::Allocation& alloc,
      std::span<const model::StringId> deploy_order);

  /// Adds every application/transfer of string k using its assignment in
  /// \p alloc (string must be fully mapped), recording each touched
  /// resource's old values on the undo trail: a full fold of its terms,
  /// then store_staged(), whether or not the string fits.
  void add_string(const model::Allocation& alloc, model::StringId k);

  /// Stage one (eqs. (2)-(3)) for a candidate: folds string k with the
  /// per-app machine \p assignment into the what-if accumulator and returns
  /// true when every machine and route it touches stays within capacity,
  /// stopping at the first term that overloads one.  Writes only the
  /// accumulator: the state itself is unchanged.
  [[nodiscard]] bool stage(model::StringId k,
                           std::span<const model::MachineId> assignment) noexcept;
  /// Adds string k by storing the sums folded by the last stage(k,
  /// \p assignment), which must have returned true, with nothing changing
  /// the state in between.  Each touch pushes one trail entry and one slab
  /// append, in app order, as a per-term add would.
  void store_staged(model::StringId k, std::span<const model::MachineId> assignment);
  /// What-if sums of the last stage() call, valid for the machines and
  /// routes it touched (all of them when it returned true; for tests).
  [[nodiscard]] double staged_machine_util(model::MachineId j) const noexcept {
    return staged_[static_cast<std::size_t>(j)].util;
  }
  [[nodiscard]] double staged_route_util(model::MachineId j1,
                                         model::MachineId j2) const noexcept {
    return staged_[num_machines() + route_index(j1, j2)].util;
  }

  /// A point in this state's history: the undo-trail length and the arena
  /// tip.  Valid until the state is undone past it or restored.
  struct Mark {
    std::uint32_t trail = 0;
    util::Arena::Checkpoint tip;
  };
  [[nodiscard]] Mark mark() const noexcept {
    return {static_cast<std::uint32_t>(trail_.size()), arena_.checkpoint()};
  }
  /// Undoes every add_string since \p m, newest first: the state is
  /// bit-identical to the state when \p m was taken.
  void undo_to(Mark m) noexcept;

  /// U_machine[j], eq. (2).
  [[nodiscard]] double machine_util(model::MachineId j) const noexcept {
    return arena_.view(machine_util_)[static_cast<std::size_t>(j)];
  }
  /// U_route[j1,j2], eq. (3).  Intra-machine routes are always 0.
  [[nodiscard]] double route_util(model::MachineId j1, model::MachineId j2) const noexcept {
    return arena_.view(route_util_)[route_index(j1, j2)];
  }

  /// Utilization contribution of app i of string k when placed on machine j.
  [[nodiscard]] double machine_delta(model::StringId k, model::AppIndex i,
                                     model::MachineId j) const noexcept;
  /// Utilization contribution of the output transfer of app i of string k on
  /// route j1->j2 (0 when j1 == j2).
  [[nodiscard]] double route_delta(model::StringId k, model::AppIndex i,
                                   model::MachineId j1, model::MachineId j2) const noexcept;

  /// Max utilization over all machines (0 when empty system).
  [[nodiscard]] double max_machine_util() const noexcept;

  /// System slackness, eq. (7): min residual capacity over machines & routes.
  [[nodiscard]] double slackness() const noexcept;

  /// Applications currently resident on machine j (unordered).  The span is
  /// invalidated by the next mutation of this state.
  [[nodiscard]] std::span<const AppRef> apps_on(model::MachineId j) const noexcept {
    return slab_span(static_cast<std::size_t>(j));
  }
  /// Transfers resident on route j1->j2; AppRef names the *sending* app.
  [[nodiscard]] std::span<const AppRef> transfers_on(model::MachineId j1,
                                                     model::MachineId j2) const noexcept {
    return slab_span(num_machines() + route_index(j1, j2));
  }

  [[nodiscard]] std::size_t num_machines() const noexcept { return machine_util_.count; }

  /// The model's coefficient tables (shared with every copy of this state).
  [[nodiscard]] const CoefficientTables& coefficients() const noexcept { return *coef_; }

  /// Snapshot protocol: the state is one arena block, so a snapshot is one
  /// memcpy of the used prefix and restore is the inverse memcpy — bit-exact,
  /// O(bytes), no per-string work.  A snapshot may be restored into any
  /// UtilizationState built from the same SystemModel; restoring clears the
  /// undo trail (earlier marks are void).
  void snapshot_into(util::ArenaSnapshot& out) const { arena_.snapshot_into(out); }
  void restore_from(const util::ArenaSnapshot& snap) {
    arena_.restore_from(snap);
    trail_.clear();
  }
  /// Size of the contiguous state block: what a snapshot copies.  A copy of
  /// the state also copies the undo trail, 24 bytes per touched resource of
  /// each string added since the last restore.
  [[nodiscard]] std::size_t state_bytes() const noexcept { return arena_.used(); }

 private:
  /// Per-resource resident slab: a CSR-style (offset, size, capacity) triple
  /// into the arena's AppRef pool.  Lives inside the arena itself so the
  /// snapshot memcpy captures it.
  struct Slab {
    std::uint32_t begin = 0;  ///< byte offset of the slab's first AppRef
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// One undo-trail record: a resource's utilization and slab descriptor
  /// before an add_string touched it.
  struct TrailEntry {
    std::uint32_t resource;
    Slab slab;
    double util;
  };

  /// One what-if accumulator entry: the staged sum of a resource, valid when
  /// its epoch is the current stage epoch.
  struct StagedSum {
    double util = 0.0;
    std::uint32_t epoch = 0;
  };

  /// Unified resource index: machines are [0, M), routes are M + route_index.
  [[nodiscard]] std::span<const AppRef> slab_span(std::size_t resource) const noexcept {
    const Slab& s = arena_.view(slabs_)[resource];
    return arena_.view(util::ArenaSpan<AppRef>{s.begin, s.size});
  }
  /// Utilization of a unified resource index (machine_util_ and route_util_
  /// are adjacent in the arena).
  [[nodiscard]] double& util_of(std::size_t resource) noexcept {
    return arena_.view(util::ArenaSpan<double>{
        machine_util_.offset, machine_util_.count + route_util_.count})[resource];
  }
  /// Starts \p resource from its current utilization on its first touch in
  /// this stage epoch, then adds \p delta to its staged sum and returns it.
  double fold(std::size_t resource, double delta) noexcept;
  /// Folds string k's terms into the accumulator in a new epoch and returns
  /// whether every touched resource stays within capacity; with
  /// \p stop_on_overload it stops at the first term that goes over.
  bool fold_string(model::StringId k, std::span<const model::MachineId> assignment,
                   bool stop_on_overload) noexcept;
  /// Trails the resource's old values, sets its utilization to its staged
  /// sum and appends \p ref to its resident slab, growing the slab amortized
  /// (in place when it sits at the arena tip).
  void store_to(std::size_t resource, AppRef ref);

  [[nodiscard]] std::size_t route_index(model::MachineId j1, model::MachineId j2) const noexcept {
    return static_cast<std::size_t>(j1) * num_machines() + static_cast<std::size_t>(j2);
  }

  const model::SystemModel* model_ = nullptr;
  std::shared_ptr<const CoefficientTables> coef_;
  util::Arena arena_;
  // Fixed header views (offsets never change after construction; the slab
  // pool grows past them at the tip).
  util::ArenaSpan<double> machine_util_;
  util::ArenaSpan<double> route_util_;  // M x M row-major; diagonal stays 0
  util::ArenaSpan<Slab> slabs_;         // M machine slabs, then M*M route slabs
  std::vector<TrailEntry> trail_;       // reserved for every app and transfer
  // What-if accumulator (outside the arena): one entry per unified resource.
  std::vector<StagedSum> staged_;
  std::uint32_t stage_epoch_ = 0;
};

}  // namespace tsce::analysis

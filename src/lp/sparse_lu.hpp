/// \file sparse_lu.hpp
/// Sparse LU factorisation of a simplex basis with product-form eta updates.
///
/// The factorisation is a right-looking Gaussian elimination with Markowitz
/// pivot selection (threshold partial pivoting for stability, fill-minimising
/// (r-1)(c-1) cost for sparsity).  Simplex bases are singleton-dominated —
/// most columns are slacks or near-slack structural columns — so the
/// elimination clears singleton rows/columns first with zero fill and only
/// runs the Markowitz search on the small remaining kernel, scanning an
/// index-ordered list of the columns still active rather than all m.
///
/// Between refactorisations, basis changes are absorbed as product-form eta
/// matrices: pivoting column q into basis position r appends the spike
/// w = B^-1 A_q, and FTRAN/BTRAN apply the eta file after/before the LU
/// solves.  The eta file grows with every pivot (and its error compounds), so
/// the simplex refactorises every `refactor_interval` pivots or earlier when
/// the FTRAN/BTRAN cross-check drifts (see simplex.cpp).
///
/// Index spaces: FTRAN input vectors are indexed by constraint row, output by
/// basis position (the column order given to factorize()); BTRAN is the
/// transpose, position in / row out.
///
/// Hyper-sparse solves: a unit or few-nonzero rhs reaches only a small part
/// of the factor, so no LU pass sweeps all m elimination steps.  Each pass
/// marks the steps that can still be nonzero in a bitset and visits them
/// with a monotone cursor, in the same ascending (L, U^T) or descending
/// (U, L^T) step order a full sweep would.  The scatter passes (L, U^T) push
/// the step of every index they newly fill; the dot-product passes (U, L^T)
/// learn which steps need a value from transposed patterns of U and L built
/// by factorize().  Every step a pass pushes comes after the one it is
/// visiting, so the cursor never moves back.
/// The arithmetic of every visited step is unchanged — the same entries are
/// combined in the same order — so the results are bit-identical to a full
/// sweep.  A pass that needs more than kHyperSparseDensity·m steps (a dense
/// rhs, or heavy fill) finishes as a plain sweep over the remaining steps.
/// The eta passes need no queue: FTRAN skips every eta whose pivot entry is
/// zero, and BTRAN's transposed pass reads each eta once (the file holds at
/// most `refactor_interval` spikes).
///
/// Storage reuse: the active-submatrix lists of the elimination and all
/// solve scratch are members sized by factorize(), so a refactorisation of
/// a same-sized basis reuses the previous one's buffers, and ftran/btran
/// never allocate.
///
/// Determinism: pivot selection breaks ties on (Markowitz cost, column,
/// row), all iteration orders are index-based, and no randomisation is used,
/// so a fixed input always produces the identical factor and solve sequence.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lp/problem.hpp"
#include "util/hot.hpp"

namespace tsce::lp {

/// Dense-value/sparse-pattern work vector used by the FTRAN/BTRAN kernels.
/// `values` is authoritative; `pattern` lists the (unique) indices that may
/// be nonzero so consumers can iterate without scanning the whole vector.
struct IndexedVector {
  std::vector<double> values;
  std::vector<std::int32_t> pattern;

  void resize(std::size_t n) {
    values.assign(n, 0.0);
    pattern.clear();
    pattern.reserve(n);
  }

  /// Zeroes only the listed pattern entries (O(pattern) not O(n)).
  void clear() {
    for (const std::int32_t i : pattern) values[static_cast<std::size_t>(i)] = 0.0;
    pattern.clear();
  }

  void add(std::int32_t i, double v) {
    const auto u = static_cast<std::size_t>(i);
    if (values[u] == 0.0) pattern.push_back(i);
    values[u] += v;
  }

  /// Appends \p i to the pattern without touching values.  Kernel-internal:
  /// the caller (BasisLu's mark-guarded solves) guarantees \p i is not
  /// already listed.
  void note(std::int32_t i) { pattern.push_back(i); }
};

class BasisLu {
 public:
  /// Factorises the basis whose column at position p is `a` column
  /// `basis[p]`.  Clears the eta file.  Returns false when the basis is
  /// numerically singular (no pivot with magnitude >= \p pivot_tol exists in
  /// some elimination step); the factor state is unusable until the next
  /// successful factorize().
  [[nodiscard]] bool factorize(const CscMatrix& a,
                               const std::vector<std::int32_t>& basis,
                               double pivot_tol);

  /// Solves B x = b in place: on input \p v is indexed by constraint row, on
  /// output by basis position.  Applies the LU factors then the eta file.
  TSCE_HOT void ftran(IndexedVector& v) const;

  /// Solves B^T x = b in place: position in, row out.  Applies the eta file
  /// (transposed, reverse order) then the LU factors.
  TSCE_HOT void btran(IndexedVector& v) const;

  /// Absorbs a basis change: the column whose spike is \p w (= B^-1 A_enter,
  /// indexed by basis position) replaces position \p leave_pos.  Returns
  /// false when the spike's pivot element is smaller than \p pivot_tol, in
  /// which case the eta was not appended and the caller must refactorise.
  [[nodiscard]] bool push_eta(const IndexedVector& w, std::size_t leave_pos,
                              double pivot_tol);

  [[nodiscard]] std::size_t eta_count() const noexcept { return eta_.size(); }
  [[nodiscard]] std::size_t dimension() const noexcept { return m_; }
  /// Factor fill: nonzeros of L + U (diagnostic; eta file excluded).
  [[nodiscard]] std::size_t factor_nonzeros() const noexcept {
    return l_entries_.size() + u_entries_.size() + m_;
  }

 private:
  struct Entry {
    std::int32_t index;  ///< row (L) / basis position (U, etas)
    double value;
  };
  struct Eta {
    std::size_t start, end;  ///< half-open range into eta_entries_
    std::int32_t pivot_pos;
    double pivot_value;
  };

  /// Visits the elimination steps of one solve pass in step order without
  /// sweeping all m.  A step's key is its rank in the pass's visiting order;
  /// pending keys are bits of a bitset, and pop() returns the first set bit
  /// at or after a cursor that only moves forward.  That is exact because
  /// every push names a key at or after the cursor (asserted), and setting a
  /// bit dedupes.  Bits the cursor has passed stay set until it leaves their
  /// 64-key word, so pop() masks them off; the bitset is all zero between
  /// passes.  Once a pass has pushed more than its dense limit, it clears
  /// the pending words and sweeps every key from the cursor on.  Storage is
  /// sized by factorize(), so push() never allocates.
  class StepQueue {
   public:
    void reset(std::size_t m);
    void start(bool ascending);
    void push(std::int32_t step);
    [[nodiscard]] bool pop(std::size_t& step);
    /// False once the pass sweeps: pushes are no-ops, so callers may skip
    /// the pattern walks that feed them.
    [[nodiscard]] bool sparse() const noexcept { return !sweep_; }

   private:
    /// Maps a step to its key and back (an involution): the key is the
    /// step's rank in the pass's visiting order.
    [[nodiscard]] std::size_t flip(std::size_t i) const noexcept {
      return ascending_ ? i : m_ - 1 - i;
    }

    std::size_t m_ = 0;
    std::size_t dense_limit_ = 0;
    std::vector<std::uint64_t> bits_;  ///< pending keys, 64 a word
    std::size_t pushed_ = 0;   ///< distinct keys pushed this pass
    std::size_t pending_ = 0;  ///< pushed and not yet visited
    std::size_t next_key_ = 0;  ///< first key not yet visited (the cursor)
    bool ascending_ = true;
    bool sweep_ = false;
  };

  /// Builds the transposed pattern of a step-ordered factor (\p entries in
  /// \p start ranges): for each index, the steps whose range holds it.
  void transpose_pattern(const std::vector<Entry>& entries,
                         const std::vector<std::size_t>& start,
                         std::vector<std::size_t>& t_start,
                         std::vector<std::int32_t>& t_step);

  struct ActiveEntry {
    std::int32_t row;  ///< -1 marks a cancelled (tombstoned) entry
    double value;
  };

  std::size_t m_ = 0;
  // Elimination-ordered factors: step k pivoted (prow_[k], pcol_[k]) with
  // diagonal u_diag_[k]; l_ holds the subdiagonal multipliers by original
  // row, u_ the superdiagonal entries by basis position.
  std::vector<std::int32_t> prow_, pcol_;
  std::vector<std::int32_t> step_of_row_;  ///< inverse of prow_
  std::vector<std::int32_t> step_of_pos_;  ///< inverse of pcol_
  std::vector<double> u_diag_;
  std::vector<Entry> l_entries_, u_entries_;
  std::vector<std::size_t> l_start_, u_start_;  ///< size m+1
  // Transposed patterns for the dot-product passes: ut_step_ lists, per
  // basis position c, the steps whose U row holds c; lt_step_, per row r,
  // the steps whose L column holds r.
  std::vector<std::size_t> ut_start_, lt_start_;  ///< size m+1
  std::vector<std::int32_t> ut_step_, lt_step_;
  std::vector<Eta> eta_;
  std::vector<Entry> eta_entries_;

  // Active submatrix of the elimination (factorize() only): column-major
  // entry lists, a row -> column-position pattern, counts, flags, singleton
  // queues and the index-ordered list of active columns the Markowitz
  // search scans.  Kept between calls for buffer reuse.
  std::vector<std::vector<ActiveEntry>> col_;
  std::vector<std::vector<std::int32_t>> row_cols_;
  std::vector<std::int32_t> col_count_, row_count_;
  std::vector<std::uint8_t> row_active_, col_active_, gathered_;
  std::vector<std::int32_t> col_single_, row_single_, active_cols_;
  std::vector<std::pair<std::int32_t, double>> pivot_row_;  ///< (col position, value)
  std::vector<std::pair<std::int32_t, double>> pivot_col_;  ///< (row, value)
  std::vector<std::size_t> fill_;  ///< transposed-pattern assembly cursor

  // Solve scratch (sized once in factorize, so ftran/btran never allocate):
  // work_ is step-indexed and kept all-zero between calls via touched_;
  // mark_ dedupes pattern insertion.  Mutable scratch makes the const solves
  // non-reentrant — one BasisLu per solver instance, never shared.
  mutable std::vector<double> work_;
  mutable std::vector<std::int32_t> touched_;
  mutable std::vector<std::uint8_t> mark_;
  mutable StepQueue queue_;
};

}  // namespace tsce::lp

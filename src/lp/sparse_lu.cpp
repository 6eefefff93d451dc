#include "lp/sparse_lu.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace tsce::lp {
namespace {

/// Relative stability threshold for Markowitz pivoting: a candidate must be
/// at least this fraction of the largest magnitude in its column.  The
/// classic 0.1 compromise keeps growth bounded while leaving the pivot
/// search free to chase sparsity.
constexpr double kMarkowitzThreshold = 0.1;

/// Share of the m elimination steps a solve pass may push onto its step
/// queue before it finishes as a plain sweep.  Below it, visiting only the
/// pushed steps costs less than touching every step; above it (a dense rhs
/// such as the basic values or the duals, or heavy fill), the sweep is
/// cheaper.
constexpr double kHyperSparseDensity = 0.1;

}  // namespace

void BasisLu::StepQueue::reset(std::size_t m) {
  m_ = m;
  dense_limit_ = static_cast<std::size_t>(kHyperSparseDensity * static_cast<double>(m));
  bits_.assign((m + 63) / 64, 0);
}

void BasisLu::StepQueue::start(bool ascending) {
  assert(std::all_of(bits_.begin(), bits_.end(),
                     [](std::uint64_t word) { return word == 0; }) &&
         "the previous pass must have visited every pending key");
  ascending_ = ascending;
  pushed_ = 0;
  pending_ = 0;
  next_key_ = 0;
  sweep_ = false;
}

void BasisLu::StepQueue::push(std::int32_t step) {
  const std::size_t key = flip(static_cast<std::size_t>(step));
  assert(key >= next_key_ && "a pass may only push steps it has not passed");
  if (sweep_) return;
  std::uint64_t& word = bits_[key >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (key & 63);
  if ((word & bit) != 0) return;
  if (++pushed_ > dense_limit_) {
    std::fill(bits_.begin() + static_cast<std::ptrdiff_t>(next_key_ >> 6), bits_.end(), 0);
    sweep_ = true;
    return;
  }
  word |= bit;
  ++pending_;
}

bool BasisLu::StepQueue::pop(std::size_t& step) {
  std::size_t key = next_key_;
  if (sweep_) {
    if (key >= m_) return false;
  } else {
    if (pending_ == 0) return false;
    // A set key exists at or after the cursor, so the scan stops in range.
    std::size_t w = key >> 6;
    std::uint64_t word = bits_[w] & (~std::uint64_t{0} << (key & 63));
    while (word == 0) {
      bits_[w] = 0;  // the cursor leaves this word
      word = bits_[++w];
    }
    key = (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
    if (--pending_ == 0 || (key & 63) == 63) bits_[w] = 0;
  }
  next_key_ = key + 1;
  step = flip(key);
  return true;
}

bool BasisLu::factorize(const CscMatrix& a, const std::vector<std::int32_t>& basis,
                        double pivot_tol) {
  m_ = basis.size();
  assert(a.rows == m_ && "basis must be square");
  const auto m = static_cast<std::int32_t>(m_);

  prow_.assign(m_, -1);
  pcol_.assign(m_, -1);
  step_of_row_.assign(m_, -1);
  step_of_pos_.assign(m_, -1);
  u_diag_.assign(m_, 0.0);
  l_entries_.clear();
  u_entries_.clear();
  l_start_.assign(m_ + 1, 0);
  u_start_.assign(m_ + 1, 0);
  eta_.clear();
  eta_entries_.clear();
  work_.assign(m_, 0.0);
  touched_.clear();
  touched_.reserve(m_);
  mark_.assign(m_, 0);
  queue_.reset(m_);
  if (m_ == 0) return true;

  // Active submatrix: column-major entry lists (fill-in appended, exact
  // cancellations tombstoned) plus a row -> column-position pattern that may
  // carry stale or duplicate columns — every consumer re-validates against
  // the column store, and the per-step `gathered_` marks dedupe.  The inner
  // lists keep their capacity from the previous factorisation.
  if (col_.size() < m_) {
    col_.resize(m_);
    row_cols_.resize(m_);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    col_[i].clear();
    row_cols_[i].clear();
  }
  col_count_.assign(m_, 0);
  row_count_.assign(m_, 0);
  row_active_.assign(m_, 1);
  col_active_.assign(m_, 1);
  gathered_.assign(m_, 0);

  for (std::int32_t p = 0; p < m; ++p) {
    const auto j = static_cast<std::size_t>(basis[static_cast<std::size_t>(p)]);
    assert(j < a.cols);
    const auto begin = static_cast<std::size_t>(a.col_start[j]);
    const auto end = static_cast<std::size_t>(a.col_start[j + 1]);
    col_[static_cast<std::size_t>(p)].reserve(end - begin + 4);
    for (std::size_t idx = begin; idx < end; ++idx) {
      const std::int32_t r = a.row_index[idx];
      col_[static_cast<std::size_t>(p)].push_back({r, a.value[idx]});
      row_cols_[static_cast<std::size_t>(r)].push_back(p);
    }
    col_count_[static_cast<std::size_t>(p)] = static_cast<std::int32_t>(end - begin);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    row_count_[i] = static_cast<std::int32_t>(row_cols_[i].size());
  }

  // Singleton queues, FIFO with lazy validation: stale entries (count moved
  // on, or already pivoted) are skipped on pop.
  col_single_.clear();
  row_single_.clear();
  std::size_t col_single_head = 0, row_single_head = 0;
  for (std::int32_t p = 0; p < m; ++p) {
    if (col_count_[static_cast<std::size_t>(p)] == 1) col_single_.push_back(p);
  }
  for (std::int32_t i = 0; i < m; ++i) {
    if (row_count_[static_cast<std::size_t>(i)] == 1) row_single_.push_back(i);
  }
  // Columns the Markowitz search still has to consider, in index order;
  // pivoted columns are compacted out as the search passes them.
  active_cols_.resize(m_);
  for (std::int32_t p = 0; p < m; ++p) active_cols_[static_cast<std::size_t>(p)] = p;

  const auto live_value = [&](std::int32_t c, std::int32_t r, bool& found) -> double {
    found = false;
    for (const ActiveEntry& e : col_[static_cast<std::size_t>(c)]) {
      if (e.row == r) {
        found = true;
        return e.value;
      }
    }
    return 0.0;
  };

  for (std::size_t k = 0; k < m_; ++k) {
    std::int32_t pi = -1, pj = -1;
    double pd = 0.0;

    // 1. Column singletons: zero fill, no multipliers.
    while (pj < 0 && col_single_head < col_single_.size()) {
      const std::int32_t p = col_single_[col_single_head++];
      if (!col_active_[static_cast<std::size_t>(p)] ||
          col_count_[static_cast<std::size_t>(p)] != 1) {
        continue;
      }
      for (const ActiveEntry& e : col_[static_cast<std::size_t>(p)]) {
        if (e.row >= 0 && row_active_[static_cast<std::size_t>(e.row)]) {
          // The column's only entry: below tolerance the basis is singular —
          // no other row can ever cover this column.
          if (std::abs(e.value) < pivot_tol) return false;
          pi = e.row;
          pj = p;
          pd = e.value;
          break;
        }
      }
    }
    // 2. Row singletons: zero fill, empty U row.
    while (pj < 0 && row_single_head < row_single_.size()) {
      const std::int32_t i = row_single_[row_single_head++];
      if (!row_active_[static_cast<std::size_t>(i)] ||
          row_count_[static_cast<std::size_t>(i)] != 1) {
        continue;
      }
      for (const std::int32_t c : row_cols_[static_cast<std::size_t>(i)]) {
        if (!col_active_[static_cast<std::size_t>(c)]) continue;
        bool found = false;
        const double v = live_value(c, i, found);
        if (!found) continue;  // stale pattern entry
        if (std::abs(v) < pivot_tol) return false;
        pi = i;
        pj = c;
        pd = v;
        break;
      }
    }
    // 3. Markowitz: scan active columns in index order; within a column,
    // candidates must pass the relative threshold; best by
    // (cost, column, row).  Columns whose floor cost (count-1)·1 cannot
    // strictly beat the incumbent are skipped — consistent with the
    // ascending-index tie rule, so the choice stays deterministic.
    if (pj < 0) {
      std::size_t best_cost = static_cast<std::size_t>(-1);
      std::size_t kept = 0;
      for (const std::int32_t p : active_cols_) {
        if (!col_active_[static_cast<std::size_t>(p)]) continue;
        active_cols_[kept++] = p;
        const auto cnt =
            static_cast<std::size_t>(col_count_[static_cast<std::size_t>(p)]);
        if (pj >= 0 && cnt - 1 >= best_cost) continue;
        double colmax = 0.0;
        for (const ActiveEntry& e : col_[static_cast<std::size_t>(p)]) {
          if (e.row < 0 || !row_active_[static_cast<std::size_t>(e.row)]) continue;
          colmax = std::max(colmax, std::abs(e.value));
        }
        const double accept = std::max(pivot_tol, kMarkowitzThreshold * colmax);
        for (const ActiveEntry& e : col_[static_cast<std::size_t>(p)]) {
          if (e.row < 0 || !row_active_[static_cast<std::size_t>(e.row)]) continue;
          if (std::abs(e.value) < accept) continue;
          const auto rc = static_cast<std::size_t>(
              row_count_[static_cast<std::size_t>(e.row)]);
          const std::size_t cost = (rc - 1) * (cnt - 1);
          if (pj < 0 || cost < best_cost ||
              (cost == best_cost && e.row < pi)) {
            best_cost = cost;
            pi = e.row;
            pj = p;
            pd = e.value;
          }
        }
      }
      active_cols_.resize(kept);
      if (pj < 0) return false;  // no admissible pivot: singular
    }

    // Gather the pivot row (future U row k) and pivot column (future L
    // column k); `gathered_` dedupes stale duplicates in row_cols_.
    pivot_row_.clear();
    for (const std::int32_t c : row_cols_[static_cast<std::size_t>(pi)]) {
      if (c == pj || !col_active_[static_cast<std::size_t>(c)]) continue;
      if (gathered_[static_cast<std::size_t>(c)]) continue;
      bool found = false;
      const double v = live_value(c, pi, found);
      if (!found) continue;
      gathered_[static_cast<std::size_t>(c)] = 1;
      pivot_row_.emplace_back(c, v);
    }
    for (const auto& rc : pivot_row_) gathered_[static_cast<std::size_t>(rc.first)] = 0;
    pivot_col_.clear();
    for (const ActiveEntry& e : col_[static_cast<std::size_t>(pj)]) {
      if (e.row < 0 || e.row == pi || !row_active_[static_cast<std::size_t>(e.row)]) {
        continue;
      }
      pivot_col_.emplace_back(e.row, e.value);
    }

    // Record factors.
    prow_[k] = pi;
    pcol_[k] = pj;
    u_diag_[k] = pd;
    for (const auto& [c, v] : pivot_row_) u_entries_.push_back({c, v});
    u_start_[k + 1] = u_entries_.size();
    for (const auto& [r, v] : pivot_col_) l_entries_.push_back({r, v / pd});
    l_start_[k + 1] = l_entries_.size();

    // Rank-1 update of the active submatrix.
    for (const auto& [r, vr] : pivot_col_) {
      const double mult = vr / pd;
      for (const auto& [c, vc] : pivot_row_) {
        auto& column = col_[static_cast<std::size_t>(c)];
        ActiveEntry* hit = nullptr;
        for (ActiveEntry& e : column) {
          if (e.row == r) {
            hit = &e;
            break;
          }
        }
        if (hit != nullptr) {
          hit->value -= mult * vc;
          if (hit->value == 0.0) {  // exact cancellation: drop the entry
            hit->row = -1;
            if (--col_count_[static_cast<std::size_t>(c)] == 1) {
              col_single_.push_back(c);
            }
            if (--row_count_[static_cast<std::size_t>(r)] == 1) {
              row_single_.push_back(r);
            }
          }
        } else {
          column.push_back({r, -mult * vc});
          row_cols_[static_cast<std::size_t>(r)].push_back(c);
          ++col_count_[static_cast<std::size_t>(c)];
          ++row_count_[static_cast<std::size_t>(r)];
        }
      }
    }

    // Retire the pivot row/column and fix up neighbour counts.
    row_active_[static_cast<std::size_t>(pi)] = 0;
    col_active_[static_cast<std::size_t>(pj)] = 0;
    for (const auto& rv : pivot_col_) {
      if (--row_count_[static_cast<std::size_t>(rv.first)] == 1) {
        row_single_.push_back(rv.first);
      }
    }
    for (const auto& cv : pivot_row_) {
      if (--col_count_[static_cast<std::size_t>(cv.first)] == 1) {
        col_single_.push_back(cv.first);
      }
    }
  }

  for (std::size_t k = 0; k < m_; ++k) {
    step_of_row_[static_cast<std::size_t>(prow_[k])] = static_cast<std::int32_t>(k);
    step_of_pos_[static_cast<std::size_t>(pcol_[k])] = static_cast<std::int32_t>(k);
  }
  transpose_pattern(u_entries_, u_start_, ut_start_, ut_step_);
  transpose_pattern(l_entries_, l_start_, lt_start_, lt_step_);
  return true;
}

void BasisLu::transpose_pattern(const std::vector<Entry>& entries,
                                const std::vector<std::size_t>& start,
                                std::vector<std::size_t>& t_start,
                                std::vector<std::int32_t>& t_step) {
  t_start.assign(m_ + 1, 0);
  for (const Entry& e : entries) ++t_start[static_cast<std::size_t>(e.index) + 1];
  for (std::size_t i = 0; i < m_; ++i) t_start[i + 1] += t_start[i];
  t_step.resize(entries.size());
  fill_.assign(t_start.begin(), t_start.end() - 1);
  for (std::size_t k = 0; k < m_; ++k) {
    for (std::size_t e = start[k]; e < start[k + 1]; ++e) {
      t_step[fill_[static_cast<std::size_t>(entries[e].index)]++] =
          static_cast<std::int32_t>(k);
    }
  }
}

TSCE_HOT void BasisLu::ftran(IndexedVector& v) const {
  if (m_ == 0) return;

  // 1. Apply the elimination operations (L^-1) in ascending step order, in
  // row space.  A step whose pivot row is zero does nothing, so only the
  // steps of rows in the pattern are visited; the rows a step fills belong
  // to later steps and join the queue as they appear.
  queue_.start(/*ascending=*/true);
  for (const std::int32_t i : v.pattern) {
    mark_[static_cast<std::size_t>(i)] = 1;
    queue_.push(step_of_row_[static_cast<std::size_t>(i)]);
  }
  for (std::size_t k = 0; queue_.pop(k);) {
    const double t = v.values[static_cast<std::size_t>(prow_[k])];
    if (t == 0.0) continue;
    for (std::size_t e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      const auto r = static_cast<std::size_t>(l_entries_[e].index);
      if (!mark_[r]) {
        mark_[r] = 1;
        v.note(l_entries_[e].index);
        queue_.push(step_of_row_[r]);
      }
      v.values[r] -= l_entries_[e].value * t;
    }
  }

  // Gather into step-indexed scratch; release v for the position-space result.
  touched_.clear();
  for (const std::int32_t i : v.pattern) {
    const auto u = static_cast<std::size_t>(i);
    mark_[u] = 0;
    if (v.values[u] != 0.0) {
      const std::int32_t k = step_of_row_[u];
      work_[static_cast<std::size_t>(k)] = v.values[u];
      touched_.push_back(k);
    }
  }
  v.clear();

  // 2. Back substitution through U in descending step order, as row dot
  // products.  Step k needs a visit when its own value is nonzero or its U
  // row holds a position already solved nonzero; the transposed pattern
  // names those steps as each position is solved.
  queue_.start(/*ascending=*/false);
  for (const std::int32_t k : touched_) queue_.push(k);
  for (std::size_t k = 0; queue_.pop(k);) {
    double t = work_[k];
    for (std::size_t e = u_start_[k]; e < u_start_[k + 1]; ++e) {
      const double xc = v.values[static_cast<std::size_t>(u_entries_[e].index)];
      if (xc != 0.0) t -= u_entries_[e].value * xc;
    }
    if (t != 0.0) {
      const auto c = static_cast<std::size_t>(pcol_[k]);
      v.values[c] = t / u_diag_[k];
      v.note(pcol_[k]);
      if (queue_.sparse()) {
        for (std::size_t e = ut_start_[c]; e < ut_start_[c + 1]; ++e) {
          queue_.push(ut_step_[e]);
        }
      }
    }
  }
  for (const std::int32_t k : touched_) work_[static_cast<std::size_t>(k)] = 0.0;
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 1;

  // 3. Eta file, oldest first: x_r /= w_r, then x_i -= w_i * x_r.
  for (const Eta& eta : eta_) {
    const auto r = static_cast<std::size_t>(eta.pivot_pos);
    const double xr = v.values[r];
    if (xr == 0.0) continue;
    const double scaled = xr / eta.pivot_value;
    v.values[r] = scaled;
    for (std::size_t e = eta.start; e < eta.end; ++e) {
      const auto i = static_cast<std::size_t>(eta_entries_[e].index);
      if (!mark_[i]) {
        mark_[i] = 1;
        v.note(eta_entries_[e].index);
      }
      v.values[i] -= eta_entries_[e].value * scaled;
    }
  }
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 0;
}

TSCE_HOT void BasisLu::btran(IndexedVector& v) const {
  if (m_ == 0) return;

  // 1. Eta file transposed, newest first: only component r changes,
  // v_r = (v_r - Σ_{i≠r} w_i v_i) / w_r.
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 1;
  for (std::size_t q = eta_.size(); q-- > 0;) {
    const Eta& eta = eta_[q];
    const auto r = static_cast<std::size_t>(eta.pivot_pos);
    double t = v.values[r];
    for (std::size_t e = eta.start; e < eta.end; ++e) {
      const double vi = v.values[static_cast<std::size_t>(eta_entries_[e].index)];
      if (vi != 0.0) t -= eta_entries_[e].value * vi;
    }
    t /= eta.pivot_value;
    if (t != 0.0 && !mark_[r]) {
      mark_[r] = 1;
      v.note(eta.pivot_pos);
    }
    v.values[r] = t;
  }

  // 2. Forward substitution through U^T in ascending step order (row-access
  // form): z_k = b̂_{j_k} / d_k, then scatter −u_{k,c}·z_k into b̂.  Only
  // the steps of positions in the pattern are visited; the positions a
  // step fills belong to later steps and join the queue as they appear.
  touched_.clear();
  queue_.start(/*ascending=*/true);
  for (const std::int32_t i : v.pattern) {
    queue_.push(step_of_pos_[static_cast<std::size_t>(i)]);
  }
  for (std::size_t k = 0; queue_.pop(k);) {
    const double t = v.values[static_cast<std::size_t>(pcol_[k])];
    if (t == 0.0) continue;
    const double z = t / u_diag_[k];
    work_[k] = z;
    touched_.push_back(static_cast<std::int32_t>(k));
    for (std::size_t e = u_start_[k]; e < u_start_[k + 1]; ++e) {
      const auto c = static_cast<std::size_t>(u_entries_[e].index);
      if (!mark_[c]) {
        mark_[c] = 1;
        v.note(u_entries_[e].index);
        queue_.push(step_of_pos_[c]);
      }
      v.values[c] -= u_entries_[e].value * z;
    }
  }
  for (const std::int32_t i : v.pattern) mark_[static_cast<std::size_t>(i)] = 0;
  v.clear();

  // 3. Apply the transposed eliminations in descending step order, into row
  // space, as column dot products: w_{i_k} = z_k − Σ multipliers·w_r (rows
  // r pivoted later, already final).  Step k needs a visit when z_k is
  // nonzero or its L column holds a row already solved nonzero; the
  // transposed pattern names those steps.  prow_ is a permutation, so each
  // index is written once.
  queue_.start(/*ascending=*/false);
  for (const std::int32_t k : touched_) queue_.push(k);
  for (std::size_t k = 0; queue_.pop(k);) {
    double t = work_[k];
    for (std::size_t e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      const double wr = v.values[static_cast<std::size_t>(l_entries_[e].index)];
      if (wr != 0.0) t -= l_entries_[e].value * wr;
    }
    if (t != 0.0) {
      const auto r = static_cast<std::size_t>(prow_[k]);
      v.values[r] = t;
      v.note(prow_[k]);
      if (queue_.sparse()) {
        for (std::size_t e = lt_start_[r]; e < lt_start_[r + 1]; ++e) {
          queue_.push(lt_step_[e]);
        }
      }
    }
  }
  for (const std::int32_t k : touched_) work_[static_cast<std::size_t>(k)] = 0.0;
}

bool BasisLu::push_eta(const IndexedVector& w, std::size_t leave_pos,
                       double pivot_tol) {
  const double wr = w.values[leave_pos];
  if (std::abs(wr) < pivot_tol) return false;
  const std::size_t start = eta_entries_.size();
  for (const std::int32_t i : w.pattern) {
    if (static_cast<std::size_t>(i) == leave_pos) continue;
    const double v = w.values[static_cast<std::size_t>(i)];
    if (v != 0.0) eta_entries_.push_back({i, v});
  }
  eta_.push_back({start, eta_entries_.size(),
                  static_cast<std::int32_t>(leave_pos), wr});
  return true;
}

}  // namespace tsce::lp

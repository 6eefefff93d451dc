#include "lp/simplex.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

#include "lp/solver_base.hpp"
#include "lp/sparse_lu.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace tsce::lp {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

using detail::SolverBase;
using detail::VarStatus;

/// Pricing score of a column that may not enter.  Eligible scores are
/// d² / γ ≥ 0, so Bland's rule is "first score ≥ 0" and Devex pricing's
/// "largest score > 0" never picks an ineligible column.
constexpr double kIneligible = -1.0;

/// Columns per word of the pivot-row touched bitmap.
constexpr std::size_t kWordBits = 64;

/// Cached pricing scores with a running maximum per block of kBlock
/// columns.  A block maximum is exact except in blocks marked dirty — those
/// where the column holding the maximum was rescored lower — and dirty
/// blocks are rescanned before each choice.  Choosing a column then reads
/// the n/kBlock block maxima and one block instead of all n scores.
class PricingScores {
 public:
  /// Sizes for \p n columns, all kIneligible.
  void reset(std::size_t n) {
    score_.assign(n, kIneligible);
    block_max_.assign((n + kBlock - 1) / kBlock, kIneligible);
    dirty_.assign(block_max_.size(), 0);
    dirty_list_.clear();
    dirty_list_.reserve(block_max_.size());
  }

  void set(std::size_t j, double score) {
    const double old = score_[j];
    score_[j] = score;
    const std::size_t b = j / kBlock;
    if (score >= block_max_[b]) {
      block_max_[b] = score;
    } else if (old == block_max_[b] && !dirty_[b]) {
      dirty_[b] = 1;
      dirty_list_.push_back(b);
    }
  }

  /// First index of the largest score if that score is positive, else -1
  /// (Devex: the steepest eligible column, ties to the lowest index).
  [[nodiscard]] std::ptrdiff_t best() {
    refresh();
    double top = 0.0;
    std::size_t top_block = block_max_.size();
    for (std::size_t b = 0; b < block_max_.size(); ++b) {
      if (block_max_[b] > top) {
        top = block_max_[b];
        top_block = b;
      }
    }
    if (top_block == block_max_.size()) return -1;
    return first_in_block(top_block, [top](double v) { return v == top; });
  }

  /// First index with a score >= 0, else -1 (Bland's rule).
  [[nodiscard]] std::ptrdiff_t first_eligible() {
    refresh();
    for (std::size_t b = 0; b < block_max_.size(); ++b) {
      if (block_max_[b] >= 0.0) {
        return first_in_block(b, [](double v) { return v >= 0.0; });
      }
    }
    return -1;
  }

 private:
  /// One word of the pivot-row touched bitmap, so a word's updates land in
  /// one block.
  static constexpr std::size_t kBlock = kWordBits;

  void refresh() {
    for (const std::size_t b : dirty_list_) {
      const std::size_t end = std::min(score_.size(), (b + 1) * kBlock);
      double top = kIneligible;
      for (std::size_t j = b * kBlock; j < end; ++j) top = std::max(top, score_[j]);
      block_max_[b] = top;
      dirty_[b] = 0;
    }
    dirty_list_.clear();
  }

  template <typename Match>
  [[nodiscard]] std::ptrdiff_t first_in_block(std::size_t b, Match match) const {
    const std::size_t end = std::min(score_.size(), (b + 1) * kBlock);
    for (std::size_t j = b * kBlock; j < end; ++j) {
      if (match(score_[j])) return static_cast<std::ptrdiff_t>(j);
    }
    return -1;
  }

  std::vector<double> score_;
  std::vector<double> block_max_;
  std::vector<std::uint8_t> dirty_;
  std::vector<std::size_t> dirty_list_;
};

/// Process-wide LP telemetry; handles resolved once (registry lookups are
/// name-hashed, the returned references are stable for the process).
struct LpMetrics {
  obs::Counter& iterations;
  obs::Counter& refactorisations;
  obs::Histogram& latency_ns;

  static LpMetrics& get() {
    static LpMetrics m{
        obs::MetricsRegistry::instance().counter(obs::names::kLpIterations),
        obs::MetricsRegistry::instance().counter(obs::names::kLpRefactorisations),
        obs::MetricsRegistry::instance().histogram(obs::names::kLpSolveLatencyNs)};
    return m;
  }
};

// ---------------------------------------------------------------------------
// Sparse engine: LU-factorised basis with product-form eta updates,
// hyper-sparse FTRAN/BTRAN, and Devex pricing over incrementally maintained
// reduced costs and cached scores.  Per-iteration work scales with the
// nonzeros a pivot touches, not with m or n.
// ---------------------------------------------------------------------------

class SparseSolver : private SolverBase {
 public:
  SparseSolver(const LpProblem& problem, const SimplexOptions& options)
      : SolverBase(problem, options) {}

  LpSolution run(Sense sense) {
    LpSolution solution;
    if (m_ == 0) return bound_only(sense);

    max_iterations_ = options_.max_iterations != 0
                          ? options_.max_iterations
                          : 50 * (m_ + a_.cols) + 10000;
    w_.resize(m_);
    rho_.resize(m_);
    scratch_.resize(m_);
    build_csr();

    bool warm = false;
    if (options_.basis_warm_start != nullptr) warm = try_warm_start();
    if (!warm && !start_from_slack_basis()) {
      solution.status = SolveStatus::kIterationLimit;
      return solution;
    }

    if (needs_phase1()) {
      // try_warm_start only accepts primal-feasible bases, so this is always
      // the slack basis — the precondition build_artificials needs.
      build_artificials_sparse();
      const SolveStatus phase1 = iterate();
      solution.phase1_iterations = iterations_;
      solution.refactorisations = refactor_count_;
      if (phase1 == SolveStatus::kIterationLimit) {
        solution.status = phase1;
        return solution;
      }
      if (phase1_objective() > 1e-6) {
        solution.status = SolveStatus::kInfeasible;
        return solution;
      }
      seal_artificials();
      gamma_.assign(a_.cols, 1.0);
      recompute_duals();  // same basis, new objective
    }

    const SolveStatus status = iterate();
    solution.status = status;
    solution.iterations = iterations_;
    solution.refactorisations = refactor_count_;
    solution.x = extract_structurals();
    solution.objective = objective_of(solution.x, sense);
    if (status == SolveStatus::kOptimal) {
      solution.row_duals = extract_row_duals(sense);
      solution.basis = export_basis();
    }
    return solution;
  }

 private:
  /// CSR mirror of a_ for pivot-row (BTRAN-side) products; rebuilt whenever
  /// the column set changes.  Iterating CSC columns in order leaves each row
  /// sorted by column index — deterministic scatter order.
  void build_csr() {
    ar_start_.assign(m_ + 1, 0);
    for (std::size_t p = 0; p < a_.row_index.size(); ++p) {
      ++ar_start_[static_cast<std::size_t>(a_.row_index[p]) + 1];
    }
    for (std::size_t r = 0; r < m_; ++r) ar_start_[r + 1] += ar_start_[r];
    ar_col_.resize(a_.row_index.size());
    ar_val_.resize(a_.row_index.size());
    std::vector<std::size_t> fill = ar_start_;
    for (std::size_t c = 0; c < a_.cols; ++c) {
      for (std::int64_t p = a_.col_start[c]; p < a_.col_start[c + 1]; ++p) {
        const auto r = static_cast<std::size_t>(a_.row_index[p]);
        ar_col_[fill[r]] = static_cast<std::int32_t>(c);
        ar_val_[fill[r]] = a_.value[p];
        ++fill[r];
      }
    }
  }

  [[nodiscard]] bool factorize() {
    ++refactor_count_;
    return lu_.factorize(a_, basis_, kPivotTol);
  }

  /// Full state rebuild at the current basis: fresh factors, exact basic
  /// values, exact reduced costs.
  [[nodiscard]] bool refactorize() {
    if (!factorize()) return false;
    compute_basic_values();
    recompute_duals();
    return true;
  }

  [[nodiscard]] bool start_from_slack_basis() {
    set_slack_basis();
    gamma_.assign(a_.cols, 1.0);
    return refactorize();
  }

  /// Adopts options_.basis_warm_start when it matches the problem shape,
  /// factorises, and is primal feasible.  Any failure falls back to the
  /// slack basis (an infeasible warm basis cannot host the artificial
  /// construction, which needs B = I).
  [[nodiscard]] bool try_warm_start() {
    const SimplexBasis& wb = *options_.basis_warm_start;
    const std::size_t n_total = a_.cols;
    if (wb.status.size() != n_total) return false;
    basis_.clear();
    basis_.reserve(m_);
    vstat_.assign(n_total, VarStatus::kAtLower);
    for (std::size_t j = 0; j < n_total; ++j) {
      vstat_[j] = wb.status[j];
      if (wb.status[j] == VarStatus::kBasic) {
        basis_.push_back(static_cast<std::int32_t>(j));
      } else if (wb.status[j] == VarStatus::kAtUpper && !std::isfinite(upper_[j])) {
        return false;  // malformed snapshot: resting on an infinite bound
      }
    }
    if (basis_.size() != m_) return false;
    gamma_.assign(n_total, 1.0);
    if (!refactorize()) return false;
    return !needs_phase1();
  }

  /// xB = B^-1 (rhs - Σ nonbasic A_j x_j) via sparse FTRAN.
  void compute_basic_values() {
    scratch_.clear();
    for (std::size_t r = 0; r < m_; ++r) {
      if (rhs_[r] != 0.0) scratch_.add(static_cast<std::int32_t>(r), rhs_[r]);
    }
    for (std::size_t j = 0; j < a_.cols; ++j) {
      if (vstat_[j] == VarStatus::kBasic) continue;
      const double xj = nonbasic_value(j);
      if (xj == 0.0) continue;
      for (std::int64_t p = a_.col_start[j]; p < a_.col_start[j + 1]; ++p) {
        scratch_.add(a_.row_index[p], -a_.value[p] * xj);
      }
    }
    lu_.ftran(scratch_);
    xb_.assign(m_, 0.0);
    for (const std::int32_t i : scratch_.pattern) {
      xb_[static_cast<std::size_t>(i)] = scratch_.values[static_cast<std::size_t>(i)];
    }
    scratch_.clear();
  }

  /// Exact reduced costs d_j = c_j - y^T a_j with y = B^-T c_B, and every
  /// pricing score from them.
  void recompute_duals() {
    scratch_.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost_[static_cast<std::size_t>(basis_[i])];
      if (cb != 0.0) scratch_.add(static_cast<std::int32_t>(i), cb);
    }
    lu_.btran(scratch_);
    d_.assign(a_.cols, 0.0);
    for (std::size_t j = 0; j < a_.cols; ++j) {
      if (vstat_[j] == VarStatus::kBasic) continue;
      double d = cost_[j];
      for (std::int64_t p = a_.col_start[j]; p < a_.col_start[j + 1]; ++p) {
        d -= scratch_.values[static_cast<std::size_t>(a_.row_index[p])] * a_.value[p];
      }
      d_[j] = d;
    }
    scratch_.clear();
    duals_fresh_ = true;
    rescore_all();
  }

  /// Devex score of column j: d_j² / γ_j when j may enter (nonbasic, not
  /// fixed, reduced cost past the tolerance in its improving direction),
  /// else kIneligible.  Every write to d_, gamma_, vstat_ or a bound must be
  /// followed by a rescore of the columns it touched, so pricing can read
  /// cached scores instead of re-deriving all n per iteration.  The test is
  /// a mask and the score a select, so the hot update loop does not branch
  /// on it; a basic column is neither at its lower nor at its upper bound.
  void rescore(std::size_t j) {
    const double d = d_[j];
    const VarStatus s = vstat_[j];
    const bool may_enter = (lower_[j] != upper_[j]) &
                           (((s == VarStatus::kAtLower) & (d < -kOptimalityTol)) |
                            ((s == VarStatus::kAtUpper) & (d > kOptimalityTol)));
    const double devex = d * d / gamma_[j];
    scores_.set(j, may_enter ? devex : kIneligible);
  }

  void rescore_all() {
    scores_.reset(a_.cols);
    for (std::size_t j = 0; j < a_.cols; ++j) rescore(j);
  }

  void build_artificials_sparse() {
    const auto installed = build_artificials();
    (void)installed;  // the refactorisation below re-reads the new basis
    build_csr();
    gamma_.assign(a_.cols, 1.0);
    size_pivot_row();
    // The artificial basis is diag(±1): factorisation cannot fail.
    const bool ok = refactorize();
    assert(ok && "artificial basis must factorize");
    (void)ok;
  }

  void size_pivot_row() {
    alpha_.assign(a_.cols, 0.0);
    alpha_touched_.assign((a_.cols + kWordBits - 1) / kWordBits, 0);
  }

  /// Calls visit(c, alpha_c) for every column the pivot-row scatter touched,
  /// in ascending column order and once each, and leaves alpha_ and the
  /// touched bitmap all zero.
  template <typename Visit>
  void drain_alpha(Visit visit) {
    for (std::size_t w = 0; w < alpha_touched_.size(); ++w) {
      std::uint64_t bits = alpha_touched_[w];
      alpha_touched_[w] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t c =
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
        const double av = alpha_[c];
        alpha_[c] = 0.0;
        visit(c, av);
      }
    }
  }

  void clear_alpha() {
    drain_alpha([](std::size_t, double) {});
  }

  SolveStatus iterate() {
    std::size_t degenerate_run = 0;
    if (alpha_.size() != a_.cols) size_pivot_row();
    while (iterations_ < max_iterations_) {
      if (lu_.eta_count() >= options_.refactor_interval) {
        if (!refactorize()) return SolveStatus::kIterationLimit;
      }
      const bool bland = degenerate_run >= options_.degeneracy_limit;

      // Devex pricing over the cached scores: the first index of the largest
      // d² / γ, or under Bland's rule the first eligible index.
      const std::ptrdiff_t enter = bland ? scores_.first_eligible() : scores_.best();
      if (enter < 0) {
        // Incremental reduced costs may only declare optimality after an
        // exact reprice at the current basis.
        if (!duals_fresh_) {
          if (!refactorize()) return SolveStatus::kIterationLimit;
          continue;
        }
        return SolveStatus::kOptimal;
      }
      const auto j_enter = static_cast<std::size_t>(enter);
      const double sigma = vstat_[j_enter] == VarStatus::kAtLower ? 1.0 : -1.0;

      // FTRAN: w = B^-1 A_j, sparse in and out.
      w_.clear();
      for (std::int64_t p = a_.col_start[j_enter]; p < a_.col_start[j_enter + 1];
           ++p) {
        w_.add(a_.row_index[p], a_.value[p]);
      }
      lu_.ftran(w_);

      // Ratio test over the nonzero pattern only.
      const double span = upper_[j_enter] - lower_[j_enter];
      double t_limit = span;  // bound flip
      std::ptrdiff_t leave_row = -1;
      double leave_pivot = 0.0;
      int leave_to_upper = 0;
      for (const std::int32_t pi : w_.pattern) {
        const auto i = static_cast<std::size_t>(pi);
        const double wi = w_.values[i];
        const double rate = sigma * wi;
        if (std::abs(rate) <= kPivotTol) continue;
        const auto b = static_cast<std::size_t>(basis_[i]);
        double ratio;
        int hits_upper;
        if (rate > 0.0) {  // basic decreases toward its lower bound
          if (!std::isfinite(lower_[b])) continue;
          ratio = (xb_[i] - lower_[b]) / rate;
          hits_upper = 0;
        } else {  // basic increases toward its upper bound
          if (!std::isfinite(upper_[b])) continue;
          ratio = (xb_[i] - upper_[b]) / rate;
          hits_upper = 1;
        }
        if (ratio < 0.0) ratio = 0.0;  // bound already (numerically) tight
        if (ratio < t_limit - 1e-12) {
          t_limit = ratio;
          leave_row = static_cast<std::ptrdiff_t>(i);
          leave_pivot = wi;
          leave_to_upper = hits_upper;
        } else if (ratio <= t_limit + 1e-12) {
          const bool prefer =
              leave_row < 0 ||
              (bland ? basis_[i] < basis_[static_cast<std::size_t>(leave_row)]
                     : std::abs(wi) > std::abs(leave_pivot));
          if (prefer) {
            t_limit = std::min(t_limit, ratio);
            leave_row = static_cast<std::ptrdiff_t>(i);
            leave_pivot = wi;
            leave_to_upper = hits_upper;
          }
        }
      }

      if (!std::isfinite(t_limit)) {
        // Certify unboundedness on a fresh factorisation — a long eta file
        // (or stale reduced costs) could fake an unbounded ray.
        if (lu_.eta_count() > 0 || !duals_fresh_) {
          if (!refactorize()) return SolveStatus::kIterationLimit;
          continue;
        }
        return SolveStatus::kUnbounded;
      }
      degenerate_run = t_limit <= kPivotTol ? degenerate_run + 1 : 0;

      if (leave_row < 0) {
        // Bound flip: basis unchanged, reduced costs stay valid.
        for (const std::int32_t pi : w_.pattern) {
          const auto i = static_cast<std::size_t>(pi);
          xb_[i] -= t_limit * sigma * w_.values[i];
        }
        vstat_[j_enter] = vstat_[j_enter] == VarStatus::kAtLower
                              ? VarStatus::kAtUpper
                              : VarStatus::kAtLower;
        rescore(j_enter);
        ++iterations_;
        continue;
      }

      const auto r = static_cast<std::size_t>(leave_row);
      const double wr = leave_pivot;

      // BTRAN pivot row: rho = B^-T e_r, then alpha_j = a_j^T rho scattered
      // through the CSR rows of rho's pattern.
      rho_.clear();
      rho_.add(static_cast<std::int32_t>(r), 1.0);
      lu_.btran(rho_);
      for (const std::int32_t pi : rho_.pattern) {
        const double yv = rho_.values[static_cast<std::size_t>(pi)];
        if (yv == 0.0) continue;
        const auto row = static_cast<std::size_t>(pi);
        for (std::size_t p = ar_start_[row]; p < ar_start_[row + 1]; ++p) {
          const auto c = static_cast<std::size_t>(ar_col_[p]);
          alpha_touched_[c / kWordBits] |= std::uint64_t{1} << (c % kWordBits);
          alpha_[c] += ar_val_[p] * yv;
        }
      }

      // Forrest-Tomlin-style drift watch: the pivot element is computed both
      // by FTRAN (w_r) and BTRAN (alpha_{j_enter}); disagreement beyond
      // drift_tol means the eta file has decayed — refactorise and redo the
      // iteration on exact data.  A fresh factorisation is accepted as is.
      const double alpha_q = alpha_[j_enter];
      if (std::abs(alpha_q - wr) > options_.drift_tol * (1.0 + std::abs(wr)) &&
          lu_.eta_count() > 0) {
        clear_alpha();
        if (!refactorize()) return SolveStatus::kIterationLimit;
        continue;
      }

      // Apply the pivot: entering becomes basic in row r.
      const auto b_leave = static_cast<std::size_t>(basis_[r]);
      const double enter_start = nonbasic_value(j_enter);
      for (const std::int32_t pi : w_.pattern) {
        const auto i = static_cast<std::size_t>(pi);
        xb_[i] -= t_limit * sigma * w_.values[i];
      }
      vstat_[b_leave] = leave_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
      vstat_[j_enter] = VarStatus::kBasic;
      basis_[r] = static_cast<std::int32_t>(j_enter);
      xb_[r] = enter_start + sigma * t_limit;

      if (!lu_.push_eta(w_, r, kPivotTol)) {
        // Spike pivot below tolerance (the ratio test guards against this;
        // belt and braces): rebuild everything at the updated basis.
        clear_alpha();
        if (!refactorize()) return SolveStatus::kIterationLimit;
        ++iterations_;
        continue;
      }

      // Incremental reduced-cost and Devex-weight updates from the pivot
      // row, column by column in ascending order.  Each column's result
      // depends on its own alpha alone and gamma_max is a max, so the
      // visiting order changes nothing.  A column whose alpha cancelled to
      // exactly zero is touched but skipped.
      const double d_enter = d_[j_enter];
      const double ratio_d = d_enter / wr;
      const double gamma_q = std::max(gamma_[j_enter], 1.0);
      const double wr2 = wr * wr;
      double gamma_max = 0.0;
      drain_alpha([&](std::size_t c, double av) {
        if (av == 0.0 || vstat_[c] == VarStatus::kBasic) return;
        d_[c] -= ratio_d * av;
        const double cand = gamma_q * (av * av) / wr2;
        const double gamma = cand > gamma_[c] ? cand : gamma_[c];
        gamma_[c] = gamma;
        gamma_max = gamma > gamma_max ? gamma : gamma_max;
        rescore(c);
      });
      d_[b_leave] = -ratio_d;
      gamma_[b_leave] = std::max(gamma_q / wr2, 1.0);
      d_[j_enter] = 0.0;
      gamma_[j_enter] = 1.0;
      rescore(b_leave);
      rescore(j_enter);
      if (gamma_max > 1e10) {  // reset the reference framework
        gamma_.assign(a_.cols, 1.0);
        rescore_all();
      }
      duals_fresh_ = false;
      ++iterations_;
    }
    return SolveStatus::kIterationLimit;
  }

  /// y = B^-T c_B at the final basis, in the problem's own sense.
  [[nodiscard]] std::vector<double> extract_row_duals(Sense sense) {
    scratch_.clear();
    for (std::size_t i = 0; i < m_; ++i) {
      const double cb = cost_[static_cast<std::size_t>(basis_[i])];
      if (cb != 0.0) scratch_.add(static_cast<std::int32_t>(i), cb);
    }
    lu_.btran(scratch_);
    std::vector<double> y(m_, 0.0);
    for (const std::int32_t i : scratch_.pattern) {
      y[static_cast<std::size_t>(i)] = scratch_.values[static_cast<std::size_t>(i)];
    }
    scratch_.clear();
    if (sense == Sense::kMaximize) {
      for (double& v : y) v = -v;
    }
    return y;
  }

  BasisLu lu_;
  std::vector<std::size_t> ar_start_;  // CSR mirror of a_
  std::vector<std::int32_t> ar_col_;
  std::vector<double> ar_val_;
  std::vector<double> d_;      // reduced costs (0 for basics)
  std::vector<double> gamma_;  // Devex reference weights
  PricingScores scores_;
  std::vector<double> alpha_;  // pivot-row scatter scratch
  // Columns alpha_ may hold nonzero, a bit each; word w covers pricing
  // block w, columns [64w, 64w + 64).
  std::vector<std::uint64_t> alpha_touched_;
  IndexedVector w_, rho_, scratch_;
  std::size_t refactor_count_ = 0;
  bool duals_fresh_ = false;
};

}  // namespace

LpSolution solve(const LpProblem& problem, SimplexOptions options) {
  const std::uint64_t t0 = obs::clock_ticks();
  SparseSolver solver(problem, options);
  const LpSolution solution = solver.run(problem.sense());
  LpMetrics& metrics = LpMetrics::get();
  metrics.latency_ns.record(obs::ticks_to_ns(obs::clock_ticks() - t0));
  metrics.iterations.add(solution.iterations);
  metrics.refactorisations.add(solution.refactorisations);
  return solution;
}

}  // namespace tsce::lp

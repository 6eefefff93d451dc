#include "lp/sparse_lu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace tsce::lp {
namespace {

/// Dense column-major view of the basis matrix B whose position-p column is
/// column basis[p] of A, for brute-force reference solves.
std::vector<double> dense_basis(const CscMatrix& a,
                                const std::vector<std::int32_t>& basis) {
  const std::size_t m = basis.size();
  std::vector<double> b(m * m, 0.0);
  for (std::size_t p = 0; p < m; ++p) {
    const auto c = static_cast<std::size_t>(basis[p]);
    for (auto e = a.col_start[c]; e < a.col_start[c + 1]; ++e) {
      b[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(e)]) * m + p] =
          a.value[static_cast<std::size_t>(e)];
    }
  }
  return b;
}

/// Gaussian elimination with partial pivoting on a dense column-major matrix.
/// Solves M x = rhs; returns false on singular.
bool dense_solve(std::vector<double> mat, std::vector<double>& rhs) {
  const std::size_t m = rhs.size();
  std::vector<std::size_t> perm(m);
  for (std::size_t i = 0; i < m; ++i) perm[i] = i;
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t piv = k;
    for (std::size_t r = k + 1; r < m; ++r) {
      if (std::abs(mat[perm[r] * m + k]) > std::abs(mat[perm[piv] * m + k])) piv = r;
    }
    std::swap(perm[k], perm[piv]);
    const double d = mat[perm[k] * m + k];
    if (std::abs(d) < 1e-12) return false;
    for (std::size_t r = k + 1; r < m; ++r) {
      const double f = mat[perm[r] * m + k] / d;
      if (f == 0.0) continue;
      for (std::size_t c = k; c < m; ++c) mat[perm[r] * m + c] -= f * mat[perm[k] * m + c];
      rhs[perm[r]] -= f * rhs[perm[k]];
    }
  }
  std::vector<double> x(m);
  for (std::size_t k = m; k-- > 0;) {
    double v = rhs[perm[k]];
    for (std::size_t c = k + 1; c < m; ++c) v -= mat[perm[k] * m + c] * x[c];
    x[k] = v / mat[perm[k] * m + k];
  }
  rhs = std::move(x);
  return true;
}

void load(IndexedVector& v, const std::vector<double>& dense) {
  v.resize(dense.size());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) v.add(static_cast<std::int32_t>(i), dense[i]);
  }
}

/// A matrix, the basis positions' columns in it, and the number of spare
/// columns after the first m that can be pivoted in.
struct BasisCase {
  CscMatrix a;
  std::vector<std::int32_t> basis;
  std::size_t spare = 0;
};

/// A random basis shaped like a simplex basis with a real Markowitz kernel,
/// plus spare columns to pivot in.  Columns 0..m-k-1 are slack-like: a unit
/// entry on their own row and a few entries in later slack rows, so the
/// singleton passes clear them.  Columns m-k..m-1 form a kernel in which
/// every row and column has at least two entries (diagonal plus a cyclic
/// neighbour), so the elimination must run the Markowitz search there; the
/// kernel is strictly diagonally dominant by rows, so B is nonsingular.
/// Columns m..m+spare-1 are random sparse columns for eta updates.
BasisCase make_kernel_basis(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto m = static_cast<std::size_t>(rng.uniform_int(20, 60));
  const auto k = static_cast<std::size_t>(rng.uniform_int(6, 16));
  const std::size_t first_kernel = m - k;
  const std::size_t spare = m / 2;
  std::vector<Triplet> t;
  const auto at = [&](std::size_t r, std::size_t c, double v) {
    t.push_back({static_cast<std::int32_t>(r), static_cast<std::int32_t>(c), v});
  };
  for (std::size_t p = 0; p < first_kernel; ++p) {
    at(p, p, rng.uniform() < 0.5 ? 1.0 : -1.0);
    for (std::size_t r = p + 1; r < first_kernel; ++r) {
      if (rng.uniform() < 2.0 / static_cast<double>(m)) {
        at(r, p, rng.uniform(-1.0, 1.0));
      }
    }
  }
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t p = first_kernel + i;
    at(p, p, rng.uniform(2.0, 4.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0));
    // Cyclic neighbour: row p gets one entry in column p+1 (wrapping), so
    // every kernel row and column holds at least two entries.
    at(p, first_kernel + (i + 1) % k, rng.uniform(0.1, 0.5));
    for (int extra = 0; extra < 2; ++extra) {
      const std::size_t c = first_kernel + rng.bounded(k);
      if (c != p && c != first_kernel + (i + 1) % k && rng.uniform() < 0.5) {
        at(p, c, rng.uniform(-0.5, 0.5));
      }
    }
    // Couplings into slack rows (above the kernel block: keeps det(B) =
    // det(kernel)).
    for (int extra = 0; extra < 2; ++extra) {
      if (first_kernel > 0) at(rng.bounded(first_kernel), p, rng.uniform(-1.0, 1.0));
    }
  }
  for (std::size_t c = m; c < m + spare; ++c) {
    const std::size_t nnz = 2 + rng.bounded(4);
    for (std::size_t e = 0; e < nnz; ++e) at(rng.bounded(m), c, rng.uniform(-2.0, 2.0));
  }
  BasisCase out;
  // from_triplets sums duplicates, so a repeated (row, column) draw is one
  // entry.
  out.a = CscMatrix::from_triplets(m, m + spare, t);
  out.basis.resize(m);
  for (std::size_t p = 0; p < m; ++p) out.basis[p] = static_cast<std::int32_t>(p);
  out.spare = spare;
  return out;
}

/// Pivots \p count spare columns into the basis through push_eta, each into
/// a position where its spike is well away from zero.
void push_random_etas(BasisLu& lu, BasisCase& kb, util::Rng& rng, std::size_t count) {
  const std::size_t m = kb.basis.size();
  for (std::size_t n = 0; n < count; ++n) {
    const std::size_t q = m + rng.bounded(kb.spare);
    if (std::find(kb.basis.begin(), kb.basis.end(), static_cast<std::int32_t>(q)) !=
        kb.basis.end()) {
      continue;  // already basic
    }
    IndexedVector w;
    w.resize(m);
    for (auto e = kb.a.col_start[q]; e < kb.a.col_start[q + 1]; ++e) {
      w.add(kb.a.row_index[static_cast<std::size_t>(e)],
            kb.a.value[static_cast<std::size_t>(e)]);
    }
    lu.ftran(w);
    std::size_t leave = m;
    double best = 0.25;
    for (const std::int32_t i : w.pattern) {
      const auto p = static_cast<std::size_t>(i);
      if (std::abs(w.values[p]) > best) {
        best = std::abs(w.values[p]);
        leave = p;
      }
    }
    if (leave == m) continue;  // no stable position: skip this column
    ASSERT_TRUE(lu.push_eta(w, leave, 1e-9));
    kb.basis[leave] = static_cast<std::int32_t>(q);
  }
}

/// Every nonzero of \p v is listed in its pattern, exactly once.
void expect_pattern_covers(const IndexedVector& v, const char* what) {
  std::vector<int> listed(v.values.size(), 0);
  for (const std::int32_t i : v.pattern) ++listed[static_cast<std::size_t>(i)];
  for (std::size_t i = 0; i < v.values.size(); ++i) {
    EXPECT_LE(listed[i], 1) << what << ": index " << i << " listed twice";
    if (v.values[i] != 0.0) {
      EXPECT_EQ(listed[i], 1) << what << ": nonzero index " << i << " not in pattern";
    }
  }
}

std::vector<double> transpose(const std::vector<double>& mat, std::size_t m) {
  std::vector<double> out(m * m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < m; ++c) out[r * m + c] = mat[c * m + r];
  }
  return out;
}

/// Checks FTRAN and BTRAN of \p rhs against dense solves with the current
/// basis matrix, and their output patterns.
void expect_solves_match_dense(const BasisLu& lu, const BasisCase& kb,
                               const std::vector<double>& rhs, const char* what) {
  const std::size_t m = kb.basis.size();
  const std::vector<double> bmat = dense_basis(kb.a, kb.basis);
  IndexedVector v;
  load(v, rhs);
  lu.ftran(v);
  std::vector<double> ref = rhs;
  ASSERT_TRUE(dense_solve(bmat, ref));
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(v.values[i], ref[i], 1e-8)
        << what << " ftran pos " << i;
  }
  expect_pattern_covers(v, what);

  load(v, rhs);
  lu.btran(v);
  ref = rhs;
  ASSERT_TRUE(dense_solve(transpose(bmat, m), ref));
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(v.values[i], ref[i], 1e-8)
        << what << " btran row " << i;
  }
  expect_pattern_covers(v, what);
}

TEST(BasisLu, IdentityBasisIsIdentitySolve) {
  // A = [I]; basis = all columns: ftran/btran must return the input.
  const std::size_t m = 5;
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i) {
    t.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(i), 1.0});
  }
  const CscMatrix a = CscMatrix::from_triplets(m, m, t);
  std::vector<std::int32_t> basis = {0, 1, 2, 3, 4};
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis, 1e-9));
  EXPECT_EQ(lu.dimension(), m);
  EXPECT_EQ(lu.eta_count(), 0u);

  IndexedVector v;
  load(v, {0.0, 2.0, 0.0, -3.0, 0.5});
  lu.ftran(v);
  EXPECT_NEAR(v.values[1], 2.0, 1e-12);
  EXPECT_NEAR(v.values[3], -3.0, 1e-12);
  EXPECT_NEAR(v.values[4], 0.5, 1e-12);
  lu.btran(v);
  EXPECT_NEAR(v.values[1], 2.0, 1e-12);
}

TEST(BasisLu, SingularBasisRejected) {
  // Two identical columns.
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 0, 2.0}, {0, 1, 1.0}, {1, 1, 2.0}};
  const CscMatrix a = CscMatrix::from_triplets(2, 2, t);
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, {0, 1}, 1e-9));
}

TEST(BasisLu, PatternCoversAllNonzeros) {
  // The sparse solve may list exact-zero cancellations in the pattern, but
  // every nonzero of the result must be listed.
  std::vector<Triplet> t = {{0, 0, 2.0}, {1, 0, 1.0}, {1, 1, 3.0}, {2, 2, 1.0},
                            {0, 2, 5.0}};
  const CscMatrix a = CscMatrix::from_triplets(3, 3, t);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}, 1e-9));
  IndexedVector v;
  load(v, {2.0, 1.0, 0.0});
  lu.ftran(v);
  std::vector<bool> listed(3, false);
  for (const std::int32_t i : v.pattern) listed[static_cast<std::size_t>(i)] = true;
  for (std::size_t i = 0; i < 3; ++i) {
    if (v.values[i] != 0.0) {
      EXPECT_TRUE(listed[i]) << "missing pattern index " << i;
    }
  }
}

/// Random sparse bases: ftran/btran must agree with a dense reference solve.
class BasisLuRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BasisLuRandom, FtranBtranMatchDenseReference) {
  util::Rng rng(GetParam());
  const auto m = static_cast<std::size_t>(rng.uniform_int(2, 24));
  // Diagonally-dominated random matrix: always nonsingular.
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i) {
    t.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(i),
                 rng.uniform(2.0, 4.0) * (rng.uniform() < 0.5 ? -1.0 : 1.0)});
  }
  const std::size_t extras = m * 2;
  for (std::size_t e = 0; e < extras; ++e) {
    const auto r = static_cast<std::int32_t>(rng.bounded(m));
    const auto c = static_cast<std::int32_t>(rng.bounded(m));
    if (r == c) continue;
    t.push_back({r, c, rng.uniform(-1.0, 1.0)});
  }
  BasisCase kb;
  kb.a = CscMatrix::from_triplets(m, m, t);
  kb.basis.resize(m);
  for (std::size_t i = 0; i < m; ++i) kb.basis[i] = static_cast<std::int32_t>(i);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(kb.a, kb.basis, 1e-9));

  std::vector<double> rhs(m, 0.0);
  const std::size_t nnz_rhs = 1 + rng.bounded(m);
  for (std::size_t k = 0; k < nnz_rhs; ++k) rhs[rng.bounded(m)] = rng.uniform(-2.0, 2.0);
  expect_solves_match_dense(lu, kb, rhs, "random");
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, BasisLuRandom,
                         ::testing::Range<std::uint64_t>(1, 25));

TEST(BasisLu, EtaUpdateMatchesRefactorisation) {
  // Replace one basis column via push_eta; the updated solves must agree
  // with a fresh factorisation of the new basis.
  util::Rng rng(7);
  const std::size_t m = 8;
  std::vector<Triplet> t;
  for (std::size_t i = 0; i < m; ++i) {
    t.push_back({static_cast<std::int32_t>(i), static_cast<std::int32_t>(i),
                 rng.uniform(2.0, 4.0)});
  }
  for (std::size_t e = 0; e < 2 * m; ++e) {
    const auto r = static_cast<std::int32_t>(rng.bounded(m));
    const auto c = static_cast<std::int32_t>(rng.bounded(m));
    if (r != c) t.push_back({r, c, rng.uniform(-1.0, 1.0)});
  }
  // One extra column (index m) to pivot in.
  t.push_back({0, static_cast<std::int32_t>(m), 1.5});
  t.push_back({3, static_cast<std::int32_t>(m), -2.0});
  t.push_back({6, static_cast<std::int32_t>(m), 0.75});
  const CscMatrix a = CscMatrix::from_triplets(m, m + 1, t);

  std::vector<std::int32_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = static_cast<std::int32_t>(i);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis, 1e-9));

  // Spike w = B^-1 A_m, entering at position 2.
  IndexedVector w;
  w.resize(m);
  for (auto e = a.col_start[m]; e < a.col_start[m + 1]; ++e) {
    w.add(a.row_index[static_cast<std::size_t>(e)], a.value[static_cast<std::size_t>(e)]);
  }
  lu.ftran(w);
  ASSERT_TRUE(lu.push_eta(w, 2, 1e-9));
  EXPECT_EQ(lu.eta_count(), 1u);

  std::vector<std::int32_t> new_basis = basis;
  new_basis[2] = static_cast<std::int32_t>(m);
  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(a, new_basis, 1e-9));

  std::vector<double> rhs(m, 0.0);
  rhs[1] = 1.0;
  rhs[5] = -2.5;
  IndexedVector via_eta, via_fresh;
  load(via_eta, rhs);
  load(via_fresh, rhs);
  lu.ftran(via_eta);
  fresh.ftran(via_fresh);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(via_eta.values[i], via_fresh.values[i], 1e-8) << "ftran pos " << i;
  }
  load(via_eta, rhs);
  load(via_fresh, rhs);
  lu.btran(via_eta);
  fresh.btran(via_fresh);
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(via_eta.values[i], via_fresh.values[i], 1e-8) << "btran row " << i;
  }
}

class BasisLuKernel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BasisLuKernel, UnitAndDenseSolvesMatchDenseReference) {
  BasisCase kb = make_kernel_basis(GetParam());
  const std::size_t m = kb.basis.size();
  util::Rng rng(GetParam() ^ 0x5eedULL);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(kb.a, kb.basis, 1e-9));

  for (int round = 0; round < 3; ++round) {
    // Unit right-hand sides: the simplex's pivot-row BTRAN and slack FTRAN.
    for (const std::size_t i : {std::size_t{0}, m / 2, m - 1, rng.bounded(m)}) {
      std::vector<double> unit(m, 0.0);
      unit[i] = 1.0;
      expect_solves_match_dense(lu, kb, unit, "unit");
    }
    // Dense right-hand side: basic values and duals.
    std::vector<double> dense(m);
    for (double& x : dense) x = rng.uniform(-2.0, 2.0);
    expect_solves_match_dense(lu, kb, dense, "dense");
    // Then grow the eta file and check again.
    push_random_etas(lu, kb, rng, 4);
  }
  EXPECT_GT(lu.eta_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomKernels, BasisLuKernel,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Bitwise equality of two solve results, values and pattern.
void expect_bit_identical(const IndexedVector& x, const IndexedVector& y,
                          const char* what) {
  ASSERT_EQ(x.values.size(), y.values.size()) << what;
  for (std::size_t i = 0; i < x.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.values[i]),
              std::bit_cast<std::uint64_t>(y.values[i]))
        << what << " index " << i;
  }
  EXPECT_EQ(x.pattern, y.pattern) << what;
}

TEST(BasisLu, RefactorisingReusedStorageMatchesFreshFactor) {
  // factorize() keeps its active-submatrix lists and solve scratch between
  // calls.  A -> B -> A on one BasisLu must solve bit-identically to a
  // fresh BasisLu on A, with B both larger and smaller than A.
  BasisCase a = make_kernel_basis(3);
  for (const std::uint64_t other_seed : {4ULL, 9ULL, 17ULL}) {
    BasisCase b = make_kernel_basis(other_seed);
    BasisLu reused;
    ASSERT_TRUE(reused.factorize(a.a, a.basis, 1e-9));
    ASSERT_TRUE(reused.factorize(b.a, b.basis, 1e-9));
    {
      util::Rng rng(other_seed);
      push_random_etas(reused, b, rng, 3);  // leave an eta file behind
    }
    ASSERT_TRUE(reused.factorize(a.a, a.basis, 1e-9));
    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(a.a, a.basis, 1e-9));
    EXPECT_EQ(reused.factor_nonzeros(), fresh.factor_nonzeros());
    EXPECT_EQ(reused.eta_count(), 0u);

    // Same etas on both, then compare unit and dense solves bit for bit.
    BasisCase a_reused = a, a_fresh = a;
    util::Rng rng_reused(other_seed + 100), rng_fresh(other_seed + 100);
    push_random_etas(reused, a_reused, rng_reused, 3);
    push_random_etas(fresh, a_fresh, rng_fresh, 3);
    ASSERT_EQ(a_reused.basis, a_fresh.basis);
    const std::size_t m = a.basis.size();
    util::Rng rhs_rng(other_seed);
    for (std::size_t i = 0; i < m; i += 3) {
      std::vector<double> rhs(m, 0.0);
      rhs[i] = 1.0;
      if (i % 2 == 0) {
        for (double& x : rhs) x = rhs_rng.uniform(-1.0, 1.0);
      }
      IndexedVector x, y;
      load(x, rhs);
      load(y, rhs);
      reused.ftran(x);
      fresh.ftran(y);
      expect_bit_identical(x, y, "ftran");
      load(x, rhs);
      load(y, rhs);
      reused.btran(x);
      fresh.btran(y);
      expect_bit_identical(x, y, "btran");
    }
  }
}

TEST(BasisLu, PushEtaRejectsTinyPivot) {
  std::vector<Triplet> t = {{0, 0, 1.0}, {1, 1, 1.0}};
  const CscMatrix a = CscMatrix::from_triplets(2, 2, t);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1}, 1e-9));
  IndexedVector w;
  w.resize(2);
  w.add(0, 1.0);
  w.add(1, 1e-14);  // pivot position 1 below tolerance
  EXPECT_FALSE(lu.push_eta(w, 1, 1e-9));
  EXPECT_EQ(lu.eta_count(), 0u);  // not appended
}

}  // namespace
}  // namespace tsce::lp

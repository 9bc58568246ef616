#include "milp/simplex/lu.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "milp/simplex/sparse.h"
#include "util/simd/simd.h"

namespace wnet::milp::simplex {

/// Reference factorization: the dense-sweep left-looking LU that
/// BasisLu::factorize replaced. Every column runs its partial-pivot search
/// and its L extraction over all m rows, and the column pre-order reads
/// the column lengths inside the comparator. It writes the same factor
/// storage, so the production solves can run on its output and be compared
/// bit for bit against the pattern-tracked factorization.
struct BasisLuTestPeer {
  static bool reference_factorize(BasisLu& lu, const SparseMatrix& a,
                                  const std::vector<int>& basis_cols,
                                  double singular_tol = 1e-10) {
    const int m = static_cast<int>(basis_cols.size());
    lu.m_ = m;
    lu.l_rows_.clear();
    lu.l_vals_.clear();
    lu.l_steps_.clear();
    lu.l_start_.assign(static_cast<size_t>(m) + 1, 0);
    lu.u_rows_.clear();
    lu.u_vals_.clear();
    lu.u_start_.assign(static_cast<size_t>(m) + 1, 0);
    lu.u_diag_.assign(static_cast<size_t>(m), 0.0);
    lu.p_.assign(static_cast<size_t>(m), -1);
    lu.pinv_.assign(static_cast<size_t>(m), -1);
    lu.q_.resize(static_cast<size_t>(m));
    lu.etas_.clear();
    lu.eta_rows_.clear();
    lu.eta_vals_.clear();
    lu.work_.assign(static_cast<size_t>(m), 0.0);
    lu.work2_.assign(static_cast<size_t>(m), 0.0);

    std::iota(lu.q_.begin(), lu.q_.end(), 0);
    std::sort(lu.q_.begin(), lu.q_.end(), [&](int x, int y) {
      const size_t nx = a.column(basis_cols[static_cast<size_t>(x)]).size();
      const size_t ny = a.column(basis_cols[static_cast<size_t>(y)]).size();
      if (nx != ny) return nx < ny;
      return x < y;
    });

    std::vector<double>& x = lu.work_;
    std::priority_queue<int, std::vector<int>, std::greater<>> steps;
    std::vector<char> queued(static_cast<size_t>(m), 0);
    for (int k = 0; k < m; ++k) {
      for (const Entry& e :
           a.column(basis_cols[static_cast<size_t>(lu.q_[static_cast<size_t>(k)])])) {
        x[static_cast<size_t>(e.row)] = e.value;
        const int t = lu.pinv_[static_cast<size_t>(e.row)];
        if (t >= 0 && !queued[static_cast<size_t>(t)]) {
          queued[static_cast<size_t>(t)] = 1;
          steps.push(t);
        }
      }
      while (!steps.empty()) {
        const int t = steps.top();
        steps.pop();
        queued[static_cast<size_t>(t)] = 0;
        const int prow = lu.p_[static_cast<size_t>(t)];
        const double xv = x[static_cast<size_t>(prow)];
        x[static_cast<size_t>(prow)] = 0.0;
        if (xv == 0.0) continue;
        lu.u_rows_.push_back(t);
        lu.u_vals_.push_back(xv);
        const int64_t s = lu.l_start_[static_cast<size_t>(t)];
        const int len = static_cast<int>(lu.l_start_[static_cast<size_t>(t) + 1] - s);
        util::simd::kernels().scatter_axpy(lu.l_rows_.data() + s, lu.l_vals_.data() + s, len,
                                           -xv, x.data());
        for (int i = 0; i < len; ++i) {
          const int ts = lu.pinv_[static_cast<size_t>(lu.l_rows_[static_cast<size_t>(s + i)])];
          if (ts >= 0 && !queued[static_cast<size_t>(ts)]) {
            queued[static_cast<size_t>(ts)] = 1;
            steps.push(ts);
          }
        }
      }
      lu.u_start_[static_cast<size_t>(k) + 1] = static_cast<int64_t>(lu.u_rows_.size());

      int pivot_row = -1;
      double best = 0.0;
      for (int i = 0; i < m; ++i) {
        if (lu.pinv_[static_cast<size_t>(i)] >= 0) continue;
        const double v = std::abs(x[static_cast<size_t>(i)]);
        if (v > best) {
          best = v;
          pivot_row = i;
        }
      }
      if (pivot_row < 0 || best < singular_tol) {
        for (int i = 0; i < m; ++i) x[static_cast<size_t>(i)] = 0.0;
        return false;
      }
      const double pivot = x[static_cast<size_t>(pivot_row)];
      lu.p_[static_cast<size_t>(k)] = pivot_row;
      lu.pinv_[static_cast<size_t>(pivot_row)] = k;
      lu.u_diag_[static_cast<size_t>(k)] = pivot;
      x[static_cast<size_t>(pivot_row)] = 0.0;
      for (int i = 0; i < m; ++i) {
        const double v = x[static_cast<size_t>(i)];
        if (v == 0.0) continue;
        x[static_cast<size_t>(i)] = 0.0;
        if (lu.pinv_[static_cast<size_t>(i)] >= 0) continue;
        lu.l_rows_.push_back(i);
        lu.l_vals_.push_back(v / pivot);
      }
      lu.l_start_[static_cast<size_t>(k) + 1] = static_cast<int64_t>(lu.l_rows_.size());
    }
    lu.l_steps_.resize(lu.l_rows_.size());
    for (size_t i = 0; i < lu.l_rows_.size(); ++i) {
      lu.l_steps_[i] = lu.pinv_[static_cast<size_t>(lu.l_rows_[i])];
    }
    lu.build_transposed_patterns();
    return true;
  }

  /// Row permutation of the factorization: p[step] = original row.
  static const std::vector<int>& row_order(const BasisLu& lu) { return lu.p_; }

  /// True if both objects hold the same factors, bit for bit.
  static bool same_factors(const BasisLu& x, const BasisLu& y) {
    const auto bits = [](const std::vector<double>& a, const std::vector<double>& b) {
      return a.size() == b.size() &&
             (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
    };
    return x.m_ == y.m_ && x.l_rows_ == y.l_rows_ && bits(x.l_vals_, y.l_vals_) &&
           x.l_steps_ == y.l_steps_ && x.l_start_ == y.l_start_ && x.u_rows_ == y.u_rows_ &&
           bits(x.u_vals_, y.u_vals_) && x.u_start_ == y.u_start_ &&
           bits(x.u_diag_, y.u_diag_) && x.p_ == y.p_ && x.pinv_ == y.pinv_ && x.q_ == y.q_;
  }
};

namespace {

/// Builds a sparse matrix from dense data (rows x cols).
SparseMatrix from_dense(const std::vector<std::vector<double>>& d) {
  const int rows = static_cast<int>(d.size());
  const int cols = rows > 0 ? static_cast<int>(d[0].size()) : 0;
  SparseMatrix a(rows, cols);
  for (int j = 0; j < cols; ++j) {
    std::vector<Entry> col;
    for (int i = 0; i < rows; ++i) {
      if (d[static_cast<size_t>(i)][static_cast<size_t>(j)] != 0.0) {
        col.push_back({i, d[static_cast<size_t>(i)][static_cast<size_t>(j)]});
      }
    }
    a.set_column(j, std::move(col));
  }
  return a;
}

std::vector<double> mat_vec(const std::vector<std::vector<double>>& d,
                            const std::vector<double>& x) {
  std::vector<double> y(d.size(), 0.0);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < x.size(); ++j) y[i] += d[i][j] * x[j];
  }
  return y;
}

std::vector<double> mat_t_vec(const std::vector<std::vector<double>>& d,
                              const std::vector<double>& x) {
  std::vector<double> y(d[0].size(), 0.0);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < y.size(); ++j) y[j] += d[i][j] * x[i];
  }
  return y;
}

TEST(BasisLu, IdentityRoundTrip) {
  const auto a = from_dense({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}});
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}));
  std::vector<double> x{3.0, -1.0, 2.0};
  lu.ftran(x);
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], -1.0, 1e-12);
  EXPECT_NEAR(x[2], 2.0, 1e-12);
  std::vector<double> y{1.0, 2.0, 3.0};
  lu.btran(y);
  EXPECT_NEAR(y[2], 3.0, 1e-12);
}

TEST(BasisLu, SolvesGeneralSystem) {
  // B = [[2,1,0],[1,3,1],[0,1,4]] (columns 0..2).
  const std::vector<std::vector<double>> dense{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}};
  const auto a = from_dense(dense);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}));

  const std::vector<double> x_true{1.0, -2.0, 0.5};
  std::vector<double> rhs = mat_vec(dense, x_true);
  lu.ftran(rhs);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)], 1e-10);

  const std::vector<double> y_true{0.5, 1.5, -1.0};
  std::vector<double> c = mat_t_vec(dense, y_true);
  lu.btran(c);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(c[static_cast<size_t>(i)], y_true[static_cast<size_t>(i)], 1e-10);
}

TEST(BasisLu, DetectsSingularBasis) {
  const auto a = from_dense({{1, 2, 3}, {2, 4, 6}, {1, 1, 1}});  // col1 = 2*col0
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(a, {0, 1, 2}));
}

TEST(BasisLu, SubsetOfWiderMatrixAsBasis) {
  // A has 5 columns; basis picks {4, 1, 3}.
  const std::vector<std::vector<double>> dense{
      {1, 0, 2, 0, 1}, {0, 3, 0, 1, 0}, {2, 0, 0, 5, 1}};
  const auto a = from_dense(dense);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {4, 1, 3}));
  // B = columns 4,1,3: [[1,0,0],[0,3,1],[1,0,5]].
  const std::vector<std::vector<double>> b{{1, 0, 0}, {0, 3, 1}, {1, 0, 5}};
  const std::vector<double> x_true{2.0, 1.0, -1.0};
  std::vector<double> rhs = mat_vec(b, x_true);
  lu.ftran(rhs);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)], 1e-10);
}

TEST(BasisLu, EtaUpdateMatchesRefactorization) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  const int m = 12;
  // Random well-conditioned dense-ish matrix with extra columns to swap in.
  std::vector<std::vector<double>> dense(static_cast<size_t>(m),
                                         std::vector<double>(static_cast<size_t>(m) + 4, 0.0));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m + 4; ++j) {
      if ((i + j) % 3 == 0 || i == j) dense[static_cast<size_t>(i)][static_cast<size_t>(j)] = u(rng);
    }
    dense[static_cast<size_t>(i)][static_cast<size_t>(i)] += 4.0;  // diagonal dominance
  }
  const auto a = from_dense(dense);
  std::vector<int> basis(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) basis[static_cast<size_t>(i)] = i;

  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, basis));

  // Replace the basis position with the strongest pivot by column m
  // (outside the current basis) so the new basis stays well conditioned.
  const int entering = m;
  std::vector<double> w(static_cast<size_t>(m), 0.0);
  for (const Entry& e : a.column(entering)) w[static_cast<size_t>(e.row)] = e.value;
  lu.ftran(w);
  int pos = 0;
  for (int i = 1; i < m; ++i) {
    if (std::abs(w[static_cast<size_t>(i)]) > std::abs(w[static_cast<size_t>(pos)])) pos = i;
  }
  ASSERT_TRUE(lu.update(pos, w));
  basis[static_cast<size_t>(pos)] = entering;

  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(a, basis));

  std::vector<double> rhs(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) rhs[static_cast<size_t>(i)] = u(rng);
  std::vector<double> via_eta = rhs;
  std::vector<double> via_fresh = rhs;
  lu.ftran(via_eta);
  fresh.ftran(via_fresh);
  for (int i = 0; i < m; ++i) EXPECT_NEAR(via_eta[static_cast<size_t>(i)], via_fresh[static_cast<size_t>(i)], 1e-8);

  std::vector<double> c(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) c[static_cast<size_t>(i)] = u(rng);
  std::vector<double> bt_eta = c;
  std::vector<double> bt_fresh = c;
  lu.btran(bt_eta);
  fresh.btran(bt_fresh);
  for (int i = 0; i < m; ++i) EXPECT_NEAR(bt_eta[static_cast<size_t>(i)], bt_fresh[static_cast<size_t>(i)], 1e-8);
}

TEST(BasisLu, RandomSparseSystemsProperty) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 5 + trial;
    std::vector<std::vector<double>> dense(static_cast<size_t>(m),
                                           std::vector<double>(static_cast<size_t>(m), 0.0));
    for (int i = 0; i < m; ++i) {
      dense[static_cast<size_t>(i)][static_cast<size_t>(i)] = 5.0 + std::abs(u(rng));
      for (int k = 0; k < 3; ++k) {
        const int j = static_cast<int>(rng() % static_cast<unsigned>(m));
        if (j != i) dense[static_cast<size_t>(i)][static_cast<size_t>(j)] = u(rng);
      }
    }
    const auto a = from_dense(dense);
    std::vector<int> basis(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) basis[static_cast<size_t>(i)] = i;
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(a, basis));
    std::vector<double> x_true(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) x_true[static_cast<size_t>(i)] = u(rng);
    std::vector<double> rhs = mat_vec(dense, x_true);
    lu.ftran(rhs);
    for (int i = 0; i < m; ++i) {
      EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)], 1e-8)
          << "trial " << trial << " row " << i;
    }
  }
}

TEST(BasisLu, FtranUnitMatchesDenseFtranBitwise) {
  // The hyper-sparse single-nonzero path must reproduce the dense ftran()
  // exactly: every iteration it skips operates on an exact zero.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 15; ++trial) {
    const int m = 6 + trial;
    std::vector<std::vector<double>> dense(static_cast<size_t>(m),
                                           std::vector<double>(static_cast<size_t>(m), 0.0));
    for (int i = 0; i < m; ++i) {
      dense[static_cast<size_t>(i)][static_cast<size_t>(i)] = 4.0 + std::abs(u(rng));
      for (int k = 0; k < 2; ++k) {
        const int j = static_cast<int>(rng() % static_cast<unsigned>(m));
        if (j != i) dense[static_cast<size_t>(i)][static_cast<size_t>(j)] = u(rng);
      }
    }
    const auto a = from_dense(dense);
    std::vector<int> basis(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) basis[static_cast<size_t>(i)] = i;
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(a, basis));

    // A couple of eta updates so the sweep is exercised too.
    for (int upd = 0; upd < 2; ++upd) {
      std::vector<double> w(static_cast<size_t>(m), 0.0);
      w[static_cast<size_t>((upd * 3) % m)] = 1.0;
      lu.ftran(w);
      int pos = 0;
      for (int i = 1; i < m; ++i) {
        if (std::abs(w[static_cast<size_t>(i)]) > std::abs(w[static_cast<size_t>(pos)])) pos = i;
      }
      ASSERT_TRUE(lu.update(pos, w));
    }

    for (int row = 0; row < m; ++row) {
      const double value = u(rng);
      std::vector<double> via_dense(static_cast<size_t>(m), 0.0);
      via_dense[static_cast<size_t>(row)] = value;
      lu.ftran(via_dense);
      std::vector<double> via_unit(static_cast<size_t>(m), 0.0);
      lu.ftran_unit(via_unit, row, value);
      for (int i = 0; i < m; ++i) {
        EXPECT_EQ(via_unit[static_cast<size_t>(i)], via_dense[static_cast<size_t>(i)])
            << "trial " << trial << " row " << row << " pos " << i;
      }
    }
  }
}

// --- Pattern-tracked factorize vs the dense-sweep reference ----------------

void expect_bitwise(const std::vector<double>& got, const std::vector<double>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    uint64_t g = 0;
    uint64_t w = 0;
    std::memcpy(&g, &got[i], sizeof g);
    std::memcpy(&w, &want[i], sizeof w);
    EXPECT_EQ(g, w) << what << " entry " << i << ": " << got[i] << " vs " << want[i];
  }
}

/// ftran, btran, ftran_unit and btran_unit of `x` and `y` agree bit for bit
/// on seeded right-hand sides (some entries exactly zero), and so does
/// fill().
void expect_same_solves(const BasisLu& x, const BasisLu& y, std::mt19937& rng,
                        const std::string& what) {
  EXPECT_EQ(x.fill(), y.fill()) << what;
  const int m = x.dim();
  ASSERT_EQ(m, y.dim()) << what;
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> rhs(static_cast<size_t>(m));
    for (double& v : rhs) v = rng() % 3 == 0 ? 0.0 : u(rng);
    std::vector<double> fx = rhs;
    std::vector<double> fy = rhs;
    x.ftran(fx);
    y.ftran(fy);
    expect_bitwise(fx, fy, what + " ftran");
    std::vector<double> bx = rhs;
    std::vector<double> by = rhs;
    x.btran(bx);
    y.btran(by);
    expect_bitwise(bx, by, what + " btran");
  }
  for (int row = 0; row < m; ++row) {
    const double value = u(rng);
    std::vector<double> ux(static_cast<size_t>(m), 0.0);
    std::vector<double> uy(static_cast<size_t>(m), 0.0);
    x.ftran_unit(ux, row, value);
    y.ftran_unit(uy, row, value);
    expect_bitwise(ux, uy, what + " ftran_unit row " + std::to_string(row));
  }
  std::vector<int> rows;
  for (int pos = 0; pos < m; ++pos) {
    std::vector<double> ux(static_cast<size_t>(m), 0.0);
    std::vector<double> uy(static_cast<size_t>(m), 0.0);
    x.btran_unit(ux, pos, rows);
    y.btran_unit(uy, pos, rows);
    expect_bitwise(ux, uy, what + " btran_unit pos " + std::to_string(pos));
  }
}

/// Factorizes `basis` with BasisLu::factorize and with the reference and
/// expects the same verdict, the same factors and the same solves. Returns
/// whether the basis was nonsingular.
bool expect_matches_reference(const SparseMatrix& a, const std::vector<int>& basis,
                              std::mt19937& rng, const std::string& what) {
  BasisLu lu;
  BasisLu ref;
  const bool ok = lu.factorize(a, basis);
  EXPECT_EQ(ok, BasisLuTestPeer::reference_factorize(ref, a, basis)) << what;
  if (!ok) return false;
  EXPECT_TRUE(BasisLuTestPeer::same_factors(lu, ref)) << what;
  expect_same_solves(lu, ref, rng, what);
  return true;
}

/// A random sparse m x (m + extra) matrix [S | I] whose nonzeros are drawn
/// from `values`: small sets of equal magnitudes and powers of two make
/// eliminations cancel to exact zeros and pivot candidates tie.
SparseMatrix random_wide_matrix(int m, int extra, const std::vector<double>& values,
                                std::mt19937& rng) {
  std::vector<std::vector<double>> d(static_cast<size_t>(m),
                                     std::vector<double>(static_cast<size_t>(m + extra), 0.0));
  for (int j = 0; j < extra; ++j) {
    const int nnz = 1 + static_cast<int>(rng() % 5u);
    for (int k = 0; k < nnz; ++k) {
      const int i = static_cast<int>(rng() % static_cast<unsigned>(m));
      d[static_cast<size_t>(i)][static_cast<size_t>(j)] = values[rng() % values.size()];
    }
  }
  for (int i = 0; i < m; ++i) d[static_cast<size_t>(i)][static_cast<size_t>(extra + i)] = 1.0;
  return from_dense(d);
}

/// A basis of m columns of `a` = [S | I] (`extra` structurals, then the
/// slacks) in shuffled order, as the dual simplex hands them over: up to
/// `k` structurals, each claiming one of its rows no earlier pick claimed,
/// and slacks for the unclaimed rows. The basis has a nonzero transversal,
/// so only numerical cancellation makes it singular.
std::vector<int> mixed_basis(const SparseMatrix& a, int m, int extra, size_t k,
                             std::mt19937& rng) {
  std::vector<int> structurals(static_cast<size_t>(extra));
  std::iota(structurals.begin(), structurals.end(), 0);
  std::shuffle(structurals.begin(), structurals.end(), rng);
  std::vector<char> claimed(static_cast<size_t>(m), 0);
  std::vector<int> basis;
  for (const int j : structurals) {
    if (basis.size() == k) break;
    for (const Entry& e : a.column(j)) {
      if (claimed[static_cast<size_t>(e.row)]) continue;
      claimed[static_cast<size_t>(e.row)] = 1;
      basis.push_back(j);
      break;
    }
  }
  for (int i = 0; i < m; ++i) {
    if (!claimed[static_cast<size_t>(i)]) basis.push_back(extra + i);
  }
  std::shuffle(basis.begin(), basis.end(), rng);
  return basis;
}

TEST(BasisLuReference, RandomSparseSubsetBasesMatchBitwise) {
  // Bases are m columns of a wider matrix in shuffled order, as the dual
  // simplex hands them over: structurals mixed with slacks.
  const std::vector<std::vector<double>> value_sets{
      {-3.0, -1.25, 0.7, 2.0, 5.5},       // generic magnitudes
      {-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 4.0},  // dyadic: exact cancellations
      {-1.0, 1.0},                        // unit: every pivot search ties
  };
  std::mt19937 rng(2024);
  int nonsingular = 0;
  int trials = 0;
  for (const auto& values : value_sets) {
    for (int t = 0; t < 60; ++t) {
      const int m = 3 + static_cast<int>(rng() % 30u);
      const int extra = m + static_cast<int>(rng() % static_cast<unsigned>(m));
      const SparseMatrix a = random_wide_matrix(m, extra, values, rng);
      // As many structurals as fit on every other draw, so the elimination
      // fills in.
      const size_t k = t % 2 == 0 ? static_cast<size_t>(m) : rng() % static_cast<unsigned>(m + 1);
      const std::vector<int> basis = mixed_basis(a, m, extra, k, rng);
      ++trials;
      if (expect_matches_reference(a, basis, rng, "trial " + std::to_string(trials))) {
        ++nonsingular;
      }
    }
  }
  // Most draws must be nonsingular, or the comparison proves little.
  EXPECT_GE(nonsingular, trials / 2);
}

// --- btran_unit vs dense btran -----------------------------------------------

/// btran_unit(pos) against btran() of the dense unit vector e_pos: equal
/// under ==, bitwise equal on every nonzero, every nonzero row listed in
/// `rows` (each row once), and exactly +0.0 everywhere else. `y` is reused
/// across positions, cleared through `rows`, as the dual simplex does.
void expect_btran_unit_matches(const BasisLu& lu, const std::string& what) {
  const int m = lu.dim();
  std::vector<double> y(static_cast<size_t>(m), 0.0);
  std::vector<int> rows;
  for (int pos = 0; pos < m; ++pos) {
    std::vector<double> dense(static_cast<size_t>(m), 0.0);
    dense[static_cast<size_t>(pos)] = 1.0;
    lu.btran(dense);
    lu.btran_unit(y, pos, rows);
    const std::string at = what + " pos " + std::to_string(pos);
    std::vector<char> listed(static_cast<size_t>(m), 0);
    for (const int i : rows) {
      ASSERT_TRUE(i >= 0 && i < m) << at;
      EXPECT_FALSE(listed[static_cast<size_t>(i)]) << at << ": row " << i << " listed twice";
      listed[static_cast<size_t>(i)] = 1;
    }
    for (int i = 0; i < m; ++i) {
      const double got = y[static_cast<size_t>(i)];
      const double want = dense[static_cast<size_t>(i)];
      EXPECT_EQ(got, want) << at << " row " << i;
      if (want != 0.0) {
        EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << at << " row " << i;
        EXPECT_TRUE(listed[static_cast<size_t>(i)]) << at << ": nonzero row " << i << " unlisted";
      }
      if (!listed[static_cast<size_t>(i)]) {
        EXPECT_FALSE(std::signbit(got)) << at << ": unlisted row " << i << " holds -0.0";
      }
    }
    for (const int i : rows) y[static_cast<size_t>(i)] = 0.0;
  }
}

/// Applies `count` eta updates to `lu`, as simplex pivots would: each
/// brings in a random column of `a` at the basis position of its largest
/// FTRAN entry. Returns the number applied (a tiny pivot stops early).
int apply_random_etas(BasisLu& lu, const SparseMatrix& a, int count, std::mt19937& rng) {
  const int m = lu.dim();
  for (int e = 0; e < count; ++e) {
    std::vector<double> w(static_cast<size_t>(m), 0.0);
    const int j = static_cast<int>(rng() % static_cast<unsigned>(a.num_cols()));
    for (const Entry& en : a.column(j)) w[static_cast<size_t>(en.row)] = en.value;
    lu.ftran(w);
    int pos = 0;
    for (int i = 1; i < m; ++i) {
      if (std::abs(w[static_cast<size_t>(i)]) > std::abs(w[static_cast<size_t>(pos)])) pos = i;
    }
    if (std::abs(w[static_cast<size_t>(pos)]) < 1e-3 || !lu.update(pos, w)) return e;
  }
  return count;
}

TEST(BasisLu, BtranUnitMatchesDenseBtran) {
  // Random sparse bases mixing structurals and slacks, with 0..100 eta
  // updates on top of the factorization.
  std::mt19937 rng(314);
  int max_etas = 0;
  int tested = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int m = 8 + static_cast<int>(rng() % 40u);
    const int extra = m + static_cast<int>(rng() % static_cast<unsigned>(m));
    const SparseMatrix a = random_wide_matrix(
        m, extra,
        trial % 2 == 0 ? std::vector<double>{-3.0, -1.25, 0.7, 2.0, 5.5}
                       : std::vector<double>{-2.0, -1.0, -0.5, 0.5, 1.0, 2.0},
        rng);
    BasisLu lu;
    if (!lu.factorize(a, mixed_basis(a, m, extra, static_cast<size_t>(m), rng))) continue;
    ++tested;
    const int etas = apply_random_etas(lu, a, (trial * 100) / 39, rng);
    max_etas = std::max(max_etas, etas);
    expect_btran_unit_matches(lu, "trial " + std::to_string(trial) + " etas " +
                                      std::to_string(etas));
  }
  EXPECT_GE(tested, 20);
  EXPECT_GE(max_etas, 50);
}

TEST(BasisLu, BtranUnitAfterSingularFactorize) {
  // Each singular draw is followed by a nonsingular factorization of a
  // mixed basis on the same object: btran_unit must see only the new
  // factors, and agree bit for bit with a fresh object's.
  std::mt19937 gen(17);
  int singular = 0;
  for (int t = 0; t < 120; ++t) {
    const int m = 4 + static_cast<int>(gen() % 12u);
    const SparseMatrix w = random_wide_matrix(m, 2 * m, {-2.0, -1.0, 1.0, 2.0}, gen);
    std::vector<int> cols(static_cast<size_t>(2 * m));
    std::iota(cols.begin(), cols.end(), 0);
    std::shuffle(cols.begin(), cols.end(), gen);  // structurals only
    BasisLu lu;
    if (lu.factorize(w, std::vector<int>(cols.begin(), cols.begin() + m))) continue;
    ++singular;
    const std::vector<int> basis = mixed_basis(w, m, 2 * m, static_cast<size_t>(m), gen);
    BasisLu fresh;
    const bool ok = fresh.factorize(w, basis);
    ASSERT_EQ(lu.factorize(w, basis), ok) << "draw " << t;
    if (!ok) continue;
    expect_same_solves(lu, fresh, gen, "draw " + std::to_string(t));
    apply_random_etas(lu, w, t % 20, gen);
    expect_btran_unit_matches(lu, "draw " + std::to_string(t));
  }
  EXPECT_GT(singular, 0);
}

TEST(BasisLuReference, ExactCancellationLeavesNoLEntry) {
  // Factored in order c0, c1, c2. c0 pivots on row 1 with L = {row 0: 0.5};
  // eliminating it from c1 leaves row 0 at 1 - 2 * 0.5 = exactly 0.0, so c1
  // pivots on row 2 and its L column is empty.
  const std::vector<std::vector<double>> dense{{2, 1, 1}, {4, 2, 1}, {0, 3, 1}};
  const auto a = from_dense(dense);
  std::mt19937 rng(5);
  ASSERT_TRUE(expect_matches_reference(a, {0, 1, 2}, rng, "cancellation"));
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2}));
  EXPECT_EQ(BasisLuTestPeer::row_order(lu), (std::vector<int>{1, 2, 0}));
  EXPECT_EQ(lu.fill(), 4u);  // L: 1 entry, U: 3 strictly-upper entries
  const std::vector<double> x_true{1.0, -2.0, 0.5};
  std::vector<double> rhs = mat_vec(dense, x_true);
  lu.ftran(rhs);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(rhs[static_cast<size_t>(i)], x_true[static_cast<size_t>(i)], 1e-12);
  }
}

TEST(BasisLuReference, EqualMagnitudePivotTakesLowestRow) {
  // c1 scatters row 3 first and reaches row 2 only through L column 0, both
  // at magnitude 3: the pivot must be row 2, the first maximum in ascending
  // row order, however the rows were reached.
  const std::vector<std::vector<double>> dense{
      {2, -3, 0, 1}, {0, 0, 1, 1}, {2, 0, 1, 1}, {0, 3, 1, 1}};
  const auto a = from_dense(dense);
  std::mt19937 rng(6);
  ASSERT_TRUE(expect_matches_reference(a, {0, 1, 2, 3}, rng, "tie-break"));
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(a, {0, 1, 2, 3}));
  EXPECT_EQ(BasisLuTestPeer::row_order(lu), (std::vector<int>{0, 2, 1, 3}));
}

TEST(BasisLuReference, SingularReturnLeavesCleanScratch) {
  // The singular basis stops at its second column with a residue of ~1e-12
  // still in the scratch column. Refactorizing the same object on a good
  // basis must give exactly what a fresh object gives.
  const std::vector<std::vector<double>> dense{
      {1, 1, 0, 2}, {1, 1 + 1e-12, 0, 0}, {0, 0, 1, 1}};
  const auto a = from_dense(dense);
  std::mt19937 rng(7);
  BasisLu reused;
  BasisLu reference;
  EXPECT_FALSE(reused.factorize(a, {0, 1, 2}));
  EXPECT_FALSE(BasisLuTestPeer::reference_factorize(reference, a, {0, 1, 2}));
  ASSERT_TRUE(reused.factorize(a, {0, 3, 2}));
  BasisLu fresh;
  ASSERT_TRUE(fresh.factorize(a, {0, 3, 2}));
  EXPECT_TRUE(BasisLuTestPeer::same_factors(reused, fresh));
  expect_same_solves(reused, fresh, rng, "after singular");

  // The same on random bases: each singular draw is followed by a
  // nonsingular refactorization of the same object.
  std::mt19937 gen(11);
  int singular = 0;
  for (int t = 0; t < 80; ++t) {
    const int m = 4 + static_cast<int>(gen() % 12u);
    const SparseMatrix w = random_wide_matrix(m, 2 * m, {-2.0, -1.0, 1.0, 2.0}, gen);
    std::vector<int> cols(static_cast<size_t>(3 * m));
    std::iota(cols.begin(), cols.end(), 0);
    std::shuffle(cols.begin(), cols.begin() + 2 * m, gen);  // structurals only
    BasisLu lu;
    if (lu.factorize(w, std::vector<int>(cols.begin(), cols.begin() + m))) continue;
    ++singular;
    std::vector<int> slack(static_cast<size_t>(m));
    std::iota(slack.begin(), slack.end(), 2 * m);
    std::swap(slack.front(), slack.back());
    ASSERT_TRUE(lu.factorize(w, slack));
    BasisLu again;
    ASSERT_TRUE(again.factorize(w, slack));
    EXPECT_TRUE(BasisLuTestPeer::same_factors(lu, again)) << "draw " << t;
    expect_same_solves(lu, again, gen, "draw " + std::to_string(t));
  }
  EXPECT_GT(singular, 0);
}

}  // namespace
}  // namespace wnet::milp::simplex

// The dual simplex's row-wise pivot row against the dense pricing loop it
// replaced: same alphas bit for bit, same entering column.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "milp/simplex/dual_simplex.h"
#include "milp/simplex/standard_lp.h"
#include "milp/test_models.h"

namespace wnet::milp::simplex {

/// Test-only access to the pivot-row state of a DualSimplex, plus the
/// dense reference: rho by a dense BTRAN of e_r, then one column dot per
/// nonbasic, non-fixed column, in ascending column order.
struct DualSimplexTestPeer {
  static int rows(const DualSimplex& ds) { return ds.lp_->num_rows(); }
  static const std::vector<double>& alphas(const DualSimplex& ds) { return ds.alphas_; }
  static const std::vector<int>& priced(const DualSimplex& ds) { return ds.pivot_cols_; }

  static void sparse_pivot_row(DualSimplex& ds, int r) { ds.compute_pivot_row(r); }

  static void dense_pivot_row(DualSimplex& ds, int r) {
    const StandardLp& lp = *ds.lp_;
    std::vector<double> rho(static_cast<size_t>(lp.num_rows()), 0.0);
    rho[static_cast<size_t>(r)] = 1.0;
    ds.lu_.btran(rho);
    for (const int j : ds.pivot_cols_) ds.alphas_[static_cast<size_t>(j)] = 0.0;
    ds.pivot_cols_.clear();
    for (int j = 0; j < lp.num_cols(); ++j) {
      if (ds.in_basis_[static_cast<size_t>(j)]) continue;
      if (lp.lb()[static_cast<size_t>(j)] == lp.ub()[static_cast<size_t>(j)]) continue;
      ds.alphas_[static_cast<size_t>(j)] = lp.a().dot_column(j, rho);
      ds.pivot_cols_.push_back(j);
    }
  }

  static int entering(DualSimplex& ds, double sigma, bool bland) {
    ds.banned_.clear();
    return ds.choose_entering(sigma, bland);
  }
};

namespace {

uint64_t bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

struct Tally {
  int rows = 0;
  int skipped = 0;  ///< eligible columns the sparse row never priced
};

/// Compares the sparse and the dense pivot row of every basis position of
/// `ds` in its current state.
void expect_pivot_rows_match(DualSimplex& ds, const std::string& what, Tally& tally) {
  using Peer = DualSimplexTestPeer;
  const int m = Peer::rows(ds);
  for (int r = 0; r < m; ++r) {
    const std::string at = what + " row " + std::to_string(r);
    Peer::dense_pivot_row(ds, r);
    const std::vector<double> dense = Peer::alphas(ds);
    const std::vector<int> dense_cols = Peer::priced(ds);
    int dense_q[2][2];
    for (int s = 0; s < 2; ++s) {
      for (int b = 0; b < 2; ++b) dense_q[s][b] = Peer::entering(ds, s == 0 ? 1.0 : -1.0, b != 0);
    }

    Peer::sparse_pivot_row(ds, r);
    const std::vector<double>& sparse = Peer::alphas(ds);
    const std::vector<int>& sparse_cols = Peer::priced(ds);
    ASSERT_EQ(sparse.size(), dense.size()) << at;
    EXPECT_TRUE(std::is_sorted(sparse_cols.begin(), sparse_cols.end())) << at;
    EXPECT_TRUE(std::includes(dense_cols.begin(), dense_cols.end(), sparse_cols.begin(),
                              sparse_cols.end()))
        << at << ": priced a basic or fixed column";
    std::vector<char> in_sparse(sparse.size(), 0);
    for (const int j : sparse_cols) in_sparse[static_cast<size_t>(j)] = 1;
    for (size_t j = 0; j < sparse.size(); ++j) {
      if (dense[j] != 0.0) {
        EXPECT_TRUE(in_sparse[j]) << at << ": column " << j << " not priced";
        EXPECT_EQ(bits(sparse[j]), bits(dense[j])) << at << " column " << j;
      } else {
        EXPECT_EQ(sparse[j], 0.0) << at << " column " << j;
      }
      if (!in_sparse[j]) {
        EXPECT_EQ(bits(sparse[j]), bits(0.0)) << at << " column " << j;
      }
    }
    for (int s = 0; s < 2; ++s) {
      for (int b = 0; b < 2; ++b) {
        EXPECT_EQ(Peer::entering(ds, s == 0 ? 1.0 : -1.0, b != 0), dense_q[s][b])
            << at << " sigma " << (s == 0 ? "+" : "-") << " bland " << b;
      }
    }
    ++tally.rows;
    tally.skipped += static_cast<int>(dense_cols.size() - sparse_cols.size());
  }
}

TEST(DualSimplexPivotRow, MatchesDensePricing) {
  // Every basis position of random LPs, stopped after 0..many pivots (so
  // the LU carries 0..n eta updates), and again after a cut row is
  // appended and the grown LP re-solved.
  Tally tally;
  for (unsigned seed = 1; seed <= 12; ++seed) {
    const Model model = tests::random_model(seed, 8, 8, 6 + static_cast<int>(seed % 5));
    for (const int iters : {0, 1, 3, 8, 20, 1000}) {
      const std::string what = "seed " + std::to_string(seed) + " iters " + std::to_string(iters);
      StandardLp lp(model);
      LpOptions opts;
      opts.max_iters = iters;
      DualSimplex ds(lp, opts);
      (void)ds.solve();
      expect_pivot_rows_match(ds, what, tally);

      // A cut over every other structural, then a warm re-solve.
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < lp.num_structural(); j += 2) terms.emplace_back(j, 1.0 + j % 3);
      lp.add_row(terms, Sense::kLe, 4.0);
      DualSimplex grown(lp, opts);
      (void)grown.solve();
      expect_pivot_rows_match(grown, what + " +cut", tally);
    }
  }
  EXPECT_GT(tally.rows, 500);
  // The comparison must include rows whose rho misses some eligible
  // columns, or the sparse path proves nothing.
  EXPECT_GT(tally.skipped, 0);
}

}  // namespace
}  // namespace wnet::milp::simplex

#include "milp/simplex/standard_lp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace wnet::milp::simplex {
namespace {

TEST(StandardLp, LayoutAndSlackRanges) {
  Model m;
  const Var x = m.add_continuous("x", -1.0, 2.0);
  const Var y = m.add_binary("y");
  m.add_le(LinExpr(x) + 2.0 * LinExpr(y), 3.0);   // row 0
  m.add_ge(LinExpr(x) - LinExpr(y), -1.0);        // row 1
  m.add_eq(LinExpr(x), 0.5);                      // row 2
  m.minimize(LinExpr(x) + LinExpr(y) + 7.0);

  const StandardLp lp(m);
  EXPECT_EQ(lp.num_rows(), 3);
  EXPECT_EQ(lp.num_cols(), 2 + 3);
  EXPECT_EQ(lp.num_structural(), 2);
  EXPECT_DOUBLE_EQ(lp.objective_constant(), 7.0);

  // Slack 0 (<=): [0, inf); slack 1 (>=): (-inf, 0]; slack 2 (=): [0, 0].
  EXPECT_DOUBLE_EQ(lp.lb()[2], 0.0);
  EXPECT_TRUE(std::isinf(lp.ub()[2]));
  EXPECT_TRUE(std::isinf(lp.lb()[3]));
  EXPECT_DOUBLE_EQ(lp.ub()[3], 0.0);
  EXPECT_DOUBLE_EQ(lp.lb()[4], 0.0);
  EXPECT_DOUBLE_EQ(lp.ub()[4], 0.0);

  // Slack coefficient +1 in its own row.
  ASSERT_EQ(lp.a().column(2).size(), 1u);
  EXPECT_EQ(lp.a().column(2)[0].row, 0);
  EXPECT_DOUBLE_EQ(lp.a().column(2)[0].value, 1.0);

  // Structural bounds preserved exactly.
  EXPECT_DOUBLE_EQ(lp.lb()[static_cast<size_t>(x.id)], -1.0);
  EXPECT_DOUBLE_EQ(lp.ub()[static_cast<size_t>(y.id)], 1.0);
}

TEST(StandardLp, ClampsOnlyCostSideInfinities) {
  Model m;
  const Var a = m.add_continuous("a", 0.0, kInf);  // c > 0: ub stays inf
  const Var b = m.add_continuous("b", 0.0, kInf);  // c < 0: ub clamped
  const Var c = m.add_continuous("c", -kInf, 0.0); // c > 0: lb clamped
  m.minimize(LinExpr(a) - LinExpr(b) + LinExpr(c));

  const StandardLp lp(m);
  EXPECT_TRUE(std::isinf(lp.ub()[static_cast<size_t>(a.id)]));
  EXPECT_FALSE(lp.ub_synthetic(a.id));
  EXPECT_DOUBLE_EQ(lp.ub()[static_cast<size_t>(b.id)], kBigBound);
  EXPECT_TRUE(lp.ub_synthetic(b.id));
  EXPECT_DOUBLE_EQ(lp.lb()[static_cast<size_t>(c.id)], -kBigBound);
  EXPECT_TRUE(lp.lb_synthetic(c.id));
}

TEST(StandardLp, SetBoundsReclampsAgainstCost) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 5.0);
  m.minimize(-1.0 * LinExpr(x));
  StandardLp lp(m);
  lp.set_bounds(0, 0.0, kInf);  // cost pushes up: must clamp
  EXPECT_DOUBLE_EQ(lp.ub()[0], kBigBound);
  EXPECT_TRUE(lp.ub_synthetic(0));
  lp.set_bounds(0, 1.0, 4.0);
  EXPECT_FALSE(lp.ub_synthetic(0));
  EXPECT_DOUBLE_EQ(lp.lb()[0], 1.0);
  EXPECT_THROW(lp.set_bounds(0, 5.0, 4.0), std::invalid_argument);
  EXPECT_THROW(lp.set_bounds(99, 0.0, 1.0), std::out_of_range);
}

TEST(StandardLp, ObjectiveValueIncludesConstant) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  m.minimize(2.0 * LinExpr(x) + 5.0);
  const StandardLp lp(m);
  std::vector<double> point(static_cast<size_t>(lp.num_cols()), 0.0);
  point[0] = 3.0;
  EXPECT_DOUBLE_EQ(lp.objective_value(point), 11.0);
}

TEST(StandardLp, EmptyModel) {
  Model m;
  m.minimize(LinExpr(4.2));
  const StandardLp lp(m);
  EXPECT_EQ(lp.num_rows(), 0);
  EXPECT_EQ(lp.num_cols(), 0);
  EXPECT_DOUBLE_EQ(lp.objective_value({}), 4.2);
}

/// Row i's columns as the transpose of A's column pattern (ascending).
std::vector<int> transposed_row(const StandardLp& lp, int i) {
  std::vector<int> cols;
  for (int j = 0; j < lp.num_cols(); ++j) {
    for (const Entry& e : lp.a().column(j)) {
      if (e.row == i) cols.push_back(j);
    }
  }
  return cols;
}

void expect_row_pattern_matches_a(const StandardLp& lp) {
  for (int i = 0; i < lp.num_rows(); ++i) {
    const auto pattern = lp.row_pattern(i);
    const std::vector<int> got(pattern.begin(), pattern.end());
    // Structurals ascending, then the row's own slack.
    ASSERT_FALSE(got.empty()) << "row " << i;
    EXPECT_EQ(got.back(), lp.num_structural() + i) << "row " << i;
    EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "row " << i;
    EXPECT_EQ(got, transposed_row(lp, i)) << "row " << i;
  }
}

TEST(StandardLpRowPattern, MatchesColumnsAndFollowsAddRow) {
  Model m;
  std::vector<Var> x;
  for (int j = 0; j < 5; ++j) x.push_back(m.add_continuous("x" + std::to_string(j), 0.0, 4.0));
  m.add_le(LinExpr(x[0]) + 2.0 * LinExpr(x[3]), 3.0);
  m.add_ge(LinExpr(x[4]) - LinExpr(x[1]) + LinExpr(x[2]), -1.0);
  m.add_eq(LinExpr(x[2]), 0.5);
  m.minimize(LinExpr(x[0]) + LinExpr(x[1]));

  StandardLp lp(m);
  expect_row_pattern_matches_a(lp);
  EXPECT_EQ(lp.add_row({{1, 1.0}, {3, -2.0}, {4, 0.5}}, Sense::kLe, 1.0), 3);
  expect_row_pattern_matches_a(lp);
  EXPECT_EQ(lp.add_row({{0, 1.0}}, Sense::kGe, 0.0), 4);
  EXPECT_EQ(lp.add_row({}, Sense::kEq, 0.0), 5);
  expect_row_pattern_matches_a(lp);

  // A rejected row leaves the matrix and its row pattern untouched.
  const size_t nnz = lp.a().nonzeros();
  EXPECT_THROW(lp.add_row({{0, 1.0}, {2, 1.0}, {1, 1.0}}, Sense::kLe, 1.0),
               std::invalid_argument);
  EXPECT_THROW(lp.add_row({{1, 1.0}, {7, 1.0}}, Sense::kLe, 1.0), std::out_of_range);
  EXPECT_EQ(lp.a().nonzeros(), nnz);
  EXPECT_EQ(lp.num_rows(), 6);
  EXPECT_EQ(lp.add_row({{2, 3.0}}, Sense::kLe, 1.0), 6);
  expect_row_pattern_matches_a(lp);
}

}  // namespace
}  // namespace wnet::milp::simplex

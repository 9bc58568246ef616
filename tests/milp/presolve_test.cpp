#include "milp/presolve.h"

#include <gtest/gtest.h>

#include "milp/solver.h"

namespace wnet::milp {
namespace {

TEST(Presolve, TightensSingletonRow) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 100.0);
  m.add_le(2.0 * LinExpr(x), 10.0);
  const auto res = presolve(m);
  EXPECT_FALSE(res.proven_infeasible);
  EXPECT_GE(res.bounds_tightened, 1);
  EXPECT_DOUBLE_EQ(m.var(x).ub, 5.0);
}

TEST(Presolve, RoundsIntegerBoundsInward) {
  Model m;
  const Var x = m.add_integer("x", 0, 100);
  m.add_le(2.0 * LinExpr(x), 9.0);  // x <= 4.5 -> 4
  EXPECT_FALSE(presolve(m).proven_infeasible);
  EXPECT_DOUBLE_EQ(m.var(x).ub, 4.0);
}

TEST(Presolve, PropagatesAcrossRows) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 100.0);
  const Var y = m.add_continuous("y", 0.0, 100.0);
  m.add_le(LinExpr(x), 3.0);
  m.add_le(LinExpr(y) - LinExpr(x), 0.0);  // y <= x <= 3
  const auto res = presolve(m);
  EXPECT_FALSE(res.proven_infeasible);
  EXPECT_DOUBLE_EQ(m.var(y).ub, 3.0);
}

TEST(Presolve, DetectsInfeasibility) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 1.0);
  m.add_ge(LinExpr(x), 5.0);
  const auto res = presolve(m);
  EXPECT_TRUE(res.proven_infeasible);
}

TEST(Presolve, EqualityTightensBothSides) {
  Model m;
  const Var x = m.add_continuous("x", -50.0, 50.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_eq(LinExpr(x) - LinExpr(y), 1.0);  // x = 1 + y in [1, 3]
  EXPECT_FALSE(presolve(m).proven_infeasible);
  EXPECT_DOUBLE_EQ(m.var(x).lb, 1.0);
  EXPECT_DOUBLE_EQ(m.var(x).ub, 3.0);
}

TEST(Presolve, PreservesOptimum) {
  // Presolving must not change the optimal value.
  Model m;
  const Var x = m.add_integer("x", 0, 50);
  const Var y = m.add_integer("y", 0, 50);
  m.add_ge(3.0 * LinExpr(x) + 2.0 * LinExpr(y), 12.0);
  m.add_le(LinExpr(x) + LinExpr(y), 30.0);
  m.minimize(LinExpr(x) + LinExpr(y));
  Model pre = m;
  EXPECT_FALSE(presolve(pre).proven_infeasible);
  const auto r1 = solve(m);
  const auto r2 = solve(pre);
  ASSERT_EQ(r1.status, SolveStatus::kOptimal);
  ASSERT_EQ(r2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r1.objective, r2.objective, 1e-6);
}

TEST(Presolve, NoChangeOnAlreadyTightModel) {
  Model m;
  const Var x = m.add_binary("x");
  const Var y = m.add_binary("y");
  m.add_le(LinExpr(x) + LinExpr(y), 2.0);  // redundant
  const auto res = presolve(m);
  EXPECT_EQ(res.bounds_tightened, 0);
}

}  // namespace
}  // namespace wnet::milp

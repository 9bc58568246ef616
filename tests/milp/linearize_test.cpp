#include "milp/linearize.h"

#include <gtest/gtest.h>

#include <cmath>

#include "milp/solver.h"

namespace wnet::milp {
namespace {

TEST(Linearize, BinaryProductTruthTable) {
  for (int xv = 0; xv <= 1; ++xv) {
    for (int yv = 0; yv <= 1; ++yv) {
      Model m;
      const Var x = m.add_binary("x");
      const Var y = m.add_binary("y");
      const Var z = product_binary_binary(m, x, y, "z");
      m.add_eq(LinExpr(x), xv);
      m.add_eq(LinExpr(y), yv);
      // Push z in the "wrong" direction so the constraints must pin it.
      m.minimize(xv * yv == 1 ? LinExpr(z) : -1.0 * LinExpr(z));
      const auto res = solve(m);
      ASSERT_EQ(res.status, SolveStatus::kOptimal);
      EXPECT_NEAR(res.x[static_cast<size_t>(z.id)], xv * yv, 1e-6)
          << "x=" << xv << " y=" << yv;
    }
  }
}

TEST(Linearize, BinaryProductRejectsContinuousOperand) {
  Model m;
  const Var x = m.add_binary("x");
  const Var c = m.add_continuous("c", 0, 1);
  EXPECT_THROW((void)product_binary_binary(m, x, c, "z"), std::invalid_argument);
}

TEST(Linearize, BinaryTimesContinuousBothCases) {
  for (int bv = 0; bv <= 1; ++bv) {
    Model m;
    const Var b = m.add_binary("b");
    const Var c = m.add_continuous("c", -5.0, 8.0);
    const Var w = product_binary_continuous(m, b, c, "w");
    m.add_eq(LinExpr(b), bv);
    m.add_eq(LinExpr(c), 3.5);
    m.minimize(bv == 1 ? -1.0 * LinExpr(w) : LinExpr(w));  // push away from truth
    const auto res = solve(m);
    ASSERT_EQ(res.status, SolveStatus::kOptimal);
    EXPECT_NEAR(res.x[static_cast<size_t>(w.id)], bv * 3.5, 1e-6) << "b=" << bv;
  }
}

TEST(Linearize, BinaryTimesContinuousNegativeValue) {
  Model m;
  const Var b = m.add_binary("b");
  const Var c = m.add_continuous("c", -5.0, 8.0);
  const Var w = product_binary_continuous(m, b, c, "w");
  m.add_eq(LinExpr(b), 1.0);
  m.add_eq(LinExpr(c), -4.0);
  m.minimize(LinExpr(w));
  const auto res = solve(m);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_NEAR(res.x[static_cast<size_t>(w.id)], -4.0, 1e-6);
}

TEST(Linearize, ProductRequiresFiniteBounds) {
  Model m;
  const Var b = m.add_binary("b");
  const Var c = m.add_continuous("c", 0.0, kInf);
  EXPECT_THROW((void)product_binary_continuous(m, b, c, "w"), std::invalid_argument);
}

TEST(Linearize, ExprBounds) {
  Model m;
  const Var x = m.add_continuous("x", -1.0, 2.0);
  const Var y = m.add_continuous("y", 0.0, 3.0);
  const LinExpr e = 2.0 * LinExpr(x) - LinExpr(y) + 1.0;
  EXPECT_DOUBLE_EQ(expr_upper_bound(m, e), 2 * 2 - 0 + 1);
  EXPECT_DOUBLE_EQ(expr_lower_bound(m, e), 2 * -1 - 3 + 1);
}

TEST(Linearize, ExprBoundsInfinite) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, kInf);
  const LinExpr e = LinExpr(x);
  EXPECT_TRUE(std::isinf(expr_upper_bound(m, e)));
  EXPECT_DOUBLE_EQ(expr_lower_bound(m, e), 0.0);
}

TEST(Linearize, ImplyLeEnforcedOnlyWhenActive) {
  // b=1 => x <= 2. With b=1 and minimizing -x, x must stop at 2.
  {
    Model m;
    const Var b = m.add_binary("b");
    const Var x = m.add_continuous("x", 0.0, 10.0);
    imply_le(m, b, LinExpr(x), 2.0, "cap");
    m.add_eq(LinExpr(b), 1.0);
    m.minimize(-1.0 * LinExpr(x));
    const auto res = solve(m);
    ASSERT_EQ(res.status, SolveStatus::kOptimal);
    EXPECT_NEAR(res.x[1], 2.0, 1e-6);
  }
  // With b=0 the cap must not bind.
  {
    Model m;
    const Var b = m.add_binary("b");
    const Var x = m.add_continuous("x", 0.0, 10.0);
    imply_le(m, b, LinExpr(x), 2.0, "cap");
    m.add_eq(LinExpr(b), 0.0);
    m.minimize(-1.0 * LinExpr(x));
    const auto res = solve(m);
    ASSERT_EQ(res.status, SolveStatus::kOptimal);
    EXPECT_NEAR(res.x[1], 10.0, 1e-6);
  }
}

TEST(Linearize, ImplyGeEnforcedOnlyWhenActive) {
  for (int bv = 0; bv <= 1; ++bv) {
    Model m;
    const Var b = m.add_binary("b");
    const Var x = m.add_continuous("x", 0.0, 10.0);
    imply_ge(m, b, LinExpr(x), 7.0, "floor");
    m.add_eq(LinExpr(b), bv);
    m.minimize(LinExpr(x));
    const auto res = solve(m);
    ASSERT_EQ(res.status, SolveStatus::kOptimal);
    EXPECT_NEAR(res.x[1], bv == 1 ? 7.0 : 0.0, 1e-6);
  }
}

TEST(Linearize, ImplyLeRedundantAddsNothing) {
  Model m;
  const Var b = m.add_binary("b");
  const Var x = m.add_continuous("x", 0.0, 2.0);
  const int before = m.num_constrs();
  imply_le(m, b, LinExpr(x), 5.0, "noop");  // always true given bounds
  EXPECT_EQ(m.num_constrs(), before);
}

}  // namespace
}  // namespace wnet::milp

#include "milp/simplex/dual_simplex.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "milp/model.h"
#include "milp/simplex/standard_lp.h"

namespace wnet::milp::simplex {
namespace {

LpResult solve_lp(const Model& m) {
  StandardLp lp(m);
  DualSimplex ds(lp);
  return ds.solve();
}

TEST(DualSimplex, TrivialBoxProblem) {
  Model m;
  const Var x = m.add_continuous("x", 1.0, 4.0);
  m.minimize(LinExpr(x));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.0, 1e-9);
}

TEST(DualSimplex, TwoVarLp) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0. Opt: x=2,y=2 -> -6.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 3.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_le(LinExpr(x) + LinExpr(y), 4.0);
  m.minimize(-1.0 * LinExpr(x) - 2.0 * LinExpr(y));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -6.0, 1e-8);
  EXPECT_NEAR(res.x[0], 2.0, 1e-8);
  EXPECT_NEAR(res.x[1], 2.0, 1e-8);
}

TEST(DualSimplex, EqualityConstraint) {
  // min x + y  s.t. x + 2y = 3, 0 <= x,y <= 10. Opt: x=0, y=1.5 -> 1.5.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  m.add_eq(LinExpr(x) + 2.0 * LinExpr(y), 3.0);
  m.minimize(LinExpr(x) + LinExpr(y));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 1.5, 1e-8);
}

TEST(DualSimplex, GreaterEqualRows) {
  // min 2x + 3y  s.t. x + y >= 4, x - y >= -2, 0 <= x,y <= 10.
  // Opt at intersection? Candidates: x=1,y=3 (cost 11), x=4,y=0 (cost 8).
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  m.add_ge(LinExpr(x) + LinExpr(y), 4.0);
  m.add_ge(LinExpr(x) - LinExpr(y), -2.0);
  m.minimize(2.0 * LinExpr(x) + 3.0 * LinExpr(y));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, 8.0, 1e-8);
  EXPECT_NEAR(res.x[0], 4.0, 1e-8);
  EXPECT_NEAR(res.x[1], 0.0, 1e-8);
}

TEST(DualSimplex, InfeasibleLp) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 1.0);
  m.add_ge(LinExpr(x), 2.0);
  m.minimize(LinExpr(x));
  const auto res = solve_lp(m);
  EXPECT_EQ(res.status, LpStatus::kPrimalInfeasible);
}

TEST(DualSimplex, InfeasibleByConflictingRows) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  m.add_le(LinExpr(x) + LinExpr(y), 1.0);
  m.add_ge(LinExpr(x) + LinExpr(y), 2.0);
  m.minimize(LinExpr(x));
  const auto res = solve_lp(m);
  EXPECT_EQ(res.status, LpStatus::kPrimalInfeasible);
}

TEST(DualSimplex, UnboundedDetectedViaSyntheticBound) {
  Model m;
  const Var x = m.add_continuous("x", 0.0, kInf);
  m.minimize(-1.0 * LinExpr(x));
  const auto res = solve_lp(m);
  EXPECT_EQ(res.status, LpStatus::kUnbounded);
}

TEST(DualSimplex, NegativeLowerBounds) {
  // min x  s.t. x + y >= -5, -10 <= x <= 10, -2 <= y <= 2. Opt: x=-7? No:
  // x >= -5 - y, y max 2 -> x >= -7, within bounds -> obj -7.
  Model m;
  const Var x = m.add_continuous("x", -10.0, 10.0);
  const Var y = m.add_continuous("y", -2.0, 2.0);
  m.add_ge(LinExpr(x) + LinExpr(y), -5.0);
  m.minimize(LinExpr(x));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -7.0, 1e-8);
}

TEST(DualSimplex, DegenerateLpTerminates) {
  // Many redundant constraints through the same vertex.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 10.0);
  const Var y = m.add_continuous("y", 0.0, 10.0);
  for (int k = 1; k <= 10; ++k) {
    m.add_le(static_cast<double>(k) * LinExpr(x) + static_cast<double>(k) * LinExpr(y),
             4.0 * k);
  }
  m.minimize(-1.0 * LinExpr(x) - LinExpr(y));
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, -4.0, 1e-8);
}

TEST(DualSimplex, WarmStartAfterBoundChange) {
  // Solve, tighten a bound, re-solve warm: like one B&B edge.
  Model m;
  const Var x = m.add_continuous("x", 0.0, 3.0);
  const Var y = m.add_continuous("y", 0.0, 2.0);
  m.add_le(LinExpr(x) + LinExpr(y), 4.0);
  m.minimize(-1.0 * LinExpr(x) - 2.0 * LinExpr(y));
  StandardLp lp(m);
  DualSimplex ds(lp);
  auto res = ds.solve();
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  const Basis warm = ds.basis();

  lp.set_bounds(0, 0.0, 1.0);  // x <= 1
  DualSimplex ds2(lp);
  auto res2 = ds2.solve_from(warm);
  ASSERT_EQ(res2.status, LpStatus::kOptimal);
  EXPECT_NEAR(res2.objective, -5.0, 1e-8);  // x=1, y=2
  EXPECT_LE(res2.iterations, res.iterations + 4);
}

TEST(DualSimplex, MediumRandomLpMatchesActivityBounds) {
  // Transportation-style LP with known optimum: min sum of shipments costs,
  // supply/demand balance. 3 suppliers x 4 consumers.
  Model m;
  const double cost[3][4] = {{4, 6, 8, 11}, {5, 3, 7, 9}, {6, 5, 4, 8}};
  const double supply[3] = {40, 50, 30};
  const double demand[4] = {25, 35, 30, 30};
  std::vector<std::vector<Var>> ship(3, std::vector<Var>(4));
  LinExpr obj;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      ship[static_cast<size_t>(i)][static_cast<size_t>(j)] =
          m.add_continuous("s", 0.0, 100.0);
      obj += cost[i][j] * LinExpr(ship[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    LinExpr row;
    for (int j = 0; j < 4; ++j) row += LinExpr(ship[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    m.add_le(std::move(row), supply[i]);
  }
  for (int j = 0; j < 4; ++j) {
    LinExpr col;
    for (int i = 0; i < 3; ++i) col += LinExpr(ship[static_cast<size_t>(i)][static_cast<size_t>(j)]);
    m.add_ge(std::move(col), demand[j]);
  }
  m.minimize(obj);
  const auto res = solve_lp(m);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  // Known optimum (computed by hand / cross-checked): 25*4+15*... verify by
  // weak duality sanity: objective within [sum(min col cost * demand), ...].
  double lo = 0.0;
  for (int j = 0; j < 4; ++j) {
    double c = kInf;
    for (int i = 0; i < 3; ++i) c = std::min(c, cost[i][j]);
    lo += c * demand[j];
  }
  EXPECT_GE(res.objective, lo - 1e-6);
  // Check primal feasibility of the returned point.
  std::vector<double> xs(res.x.begin(), res.x.begin() + 12);
  EXPECT_TRUE(m.is_feasible(xs, 1e-6));
}

// --- Perturbed costs are built once per LP size ----------------------------

/// A small LP with ties among the reduced costs, so the perturbation
/// decides the pivots: min -x0 - x1 - x2 - x3 over two coupling rows.
Model tied_lp() {
  Model m;
  LinExpr obj;
  LinExpr row0;
  LinExpr row1;
  for (int j = 0; j < 4; ++j) {
    const Var v = m.add_continuous("x" + std::to_string(j), 0.0, 3.0);
    obj += -1.0 * LinExpr(v);
    row0 += LinExpr(v);
    if (j % 2 == 0) row1 += 2.0 * LinExpr(v);
  }
  m.add_le(std::move(row0), 5.0);
  m.add_le(std::move(row1), 4.0);
  m.minimize(obj);
  return m;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_result(const LpResult& got, const LpResult& want, const char* what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.iterations, want.iterations) << what;
  EXPECT_TRUE(same_bits(got.x, want.x)) << what << ": x differs";
  EXPECT_TRUE(same_bits(got.reduced_costs, want.reduced_costs))
      << what << ": reduced costs differ";
  EXPECT_TRUE(same_bits({got.objective}, {want.objective})) << what;
}

TEST(DualSimplexPerturbation, CachedCostsFollowRowAppend) {
  // An engine that solved before its LP grew must answer solve, solve_from
  // and resolve on the grown LP exactly like a fresh engine: the cached
  // jitter is rebuilt for the new column count.
  const Model m = tied_lp();
  StandardLp grown_under(m);
  StandardLp grown_first(m);
  DualSimplex reused(grown_under);
  ASSERT_EQ(reused.solve().status, LpStatus::kOptimal);
  Basis warm = reused.basis();

  for (StandardLp* lp : {&grown_under, &grown_first}) {
    lp->add_row({{0, 1.0}, {2, 1.0}}, Sense::kLe, 1.5);
  }
  // The pre-growth basis, extended by the new row's slack.
  warm.status.resize(static_cast<size_t>(grown_under.num_cols()), ColStatus::kBasic);
  warm.basic.push_back(grown_under.num_cols() - 1);

  DualSimplex fresh(grown_first);
  expect_same_result(reused.solve(), fresh.solve(), "solve");
  expect_same_result(reused.solve_from(warm), fresh.solve_from(warm), "solve_from");
  for (StandardLp* lp : {&grown_under, &grown_first}) lp->set_bounds(1, 0.0, 0.5);
  expect_same_result(reused.resolve(), fresh.resolve(), "resolve");

  // With no pivots allowed the reduced costs are those of the jittered
  // slack basis, so every jittered cost, the new slack's included, shows.
  reused.set_iteration_limit(0);
  fresh.set_iteration_limit(0);
  const LpResult start = fresh.solve();
  ASSERT_EQ(start.status, LpStatus::kIterLimit);
  expect_same_result(reused.solve(), start, "jittered start");
}

TEST(DualSimplexPerturbation, DisabledPerturbationUsesExactCosts) {
  // With no pivots allowed, the reported reduced costs are those of the
  // slack basis: exactly c when perturbation is off (the slack duals are
  // zero), jittered when it is on — also after the engine solved before
  // and its LP grew by a row.
  const Model m = tied_lp();
  for (const bool perturb : {false, true}) {
    StandardLp lp(m);
    LpOptions opts;
    opts.perturb = perturb;
    DualSimplex ds(lp, opts);
    ASSERT_EQ(ds.solve().status, LpStatus::kOptimal);
    lp.add_row({{1, 1.0}, {3, 1.0}}, Sense::kLe, 2.0);
    ds.set_iteration_limit(0);
    const LpResult res = ds.solve();
    ASSERT_EQ(res.status, LpStatus::kIterLimit);
    for (int j = 0; j < lp.num_structural(); ++j) {
      const double d = res.reduced_costs[static_cast<size_t>(j)];
      const double c = lp.c()[static_cast<size_t>(j)];
      if (perturb) {
        EXPECT_NE(d, c) << "column " << j;
      } else {
        EXPECT_TRUE(same_bits({d}, {c})) << "column " << j << ": " << d << " vs " << c;
      }
    }
  }
}

}  // namespace
}  // namespace wnet::milp::simplex

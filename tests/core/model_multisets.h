#pragma once

// Name-free model comparison for the delta == fresh encoder contracts. A
// delta-extended model numbers its variables (and names its selectors) in
// append order, so two equivalent models can differ in every id and name;
// what must agree is the order-free multiset of rows, variables and
// objective coefficients.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "milp/model.h"

namespace wnet::archex {

struct ModelMultisets {
  /// Per row: (sense, rhs, sorted coefficients).
  std::vector<std::tuple<int, double, std::vector<double>>> rows;
  /// Per variable: (type, lb, ub).
  std::vector<std::tuple<int, double, double>> vars;
  std::vector<double> objective;
};

inline ModelMultisets model_multisets(const milp::Model& m) {
  ModelMultisets out;
  for (const auto& cn : m.constrs()) {
    std::vector<double> coefs;
    coefs.reserve(cn.expr.size());
    for (const auto& [v, c] : cn.expr.terms()) coefs.push_back(c);
    std::sort(coefs.begin(), coefs.end());
    out.rows.emplace_back(static_cast<int>(cn.sense), cn.rhs, std::move(coefs));
  }
  for (const auto& v : m.vars()) out.vars.emplace_back(static_cast<int>(v.type), v.lb, v.ub);
  for (const auto& [v, c] : m.objective().terms()) out.objective.push_back(c);
  std::sort(out.rows.begin(), out.rows.end());
  std::sort(out.vars.begin(), out.vars.end());
  std::sort(out.objective.begin(), out.objective.end());
  return out;
}

/// Expects `a` and `b` to hold the same rows, variables and objective
/// coefficients up to order and naming.
inline void expect_same_multisets(const milp::Model& a, const milp::Model& b,
                                  const std::string& label) {
  const ModelMultisets ma = model_multisets(a);
  const ModelMultisets mb = model_multisets(b);
  EXPECT_TRUE(ma.rows == mb.rows) << label << ": row multisets differ";
  EXPECT_TRUE(ma.vars == mb.vars) << label << ": variable multisets differ";
  EXPECT_TRUE(ma.objective == mb.objective) << label << ": objective multisets differ";
  EXPECT_EQ(a.objective().constant(), b.objective().constant()) << label;
}

}  // namespace wnet::archex

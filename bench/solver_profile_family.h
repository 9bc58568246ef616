#pragma once

// The fixed, deterministic instance family of bench/solver_profile: pure
// MILPs (knapsack, set cover, assignment, integer boxes) plus Table-3-style
// wireless-design encodings. Shared with the tier-1 test that pins the
// search's node and LP-iteration counts on the quick instances.
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/encode/encoder.h"
#include "core/workloads/scenarios.h"
#include "milp/model.h"

namespace wnet::bench {

struct Instance {
  std::string name;
  milp::Model model;
  bool smoke = true;  ///< included in the --smoke subset
};

inline milp::Model make_knapsack(uint32_t seed, int n, int rows) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> w(1, 9);
  std::uniform_int_distribution<int> p(1, 20);
  milp::Model m;
  std::vector<milp::Var> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(m.add_binary("x"));
  for (int r = 0; r < rows; ++r) {
    milp::LinExpr e;
    int total = 0;
    for (int i = 0; i < n; ++i) {
      const int wi = w(rng);
      total += wi;
      e += static_cast<double>(wi) * milp::LinExpr(xs[static_cast<size_t>(i)]);
    }
    m.add_le(std::move(e), std::floor(0.4 * total));
  }
  milp::LinExpr obj;
  for (int i = 0; i < n; ++i) obj += -static_cast<double>(p(rng)) * milp::LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  return m;
}

inline milp::Model make_set_cover(uint32_t seed, int n, int rows) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cost(1, 10);
  milp::Model m;
  std::vector<milp::Var> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(m.add_binary("x"));
  for (int r = 0; r < rows; ++r) {
    milp::LinExpr e;
    int members = 0;
    for (int i = 0; i < n; ++i) {
      if (rng() % 4 == 0) {
        e += milp::LinExpr(xs[static_cast<size_t>(i)]);
        ++members;
      }
    }
    if (members < 2) e += milp::LinExpr(xs[static_cast<size_t>(r % n)]);
    m.add_ge(std::move(e), 1.0);
  }
  milp::LinExpr obj;
  for (int i = 0; i < n; ++i) obj += static_cast<double>(cost(rng)) * milp::LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  return m;
}

inline milp::Model make_assignment(uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cost(1, 50);
  milp::Model m;
  std::vector<std::vector<milp::Var>> a(static_cast<size_t>(n));
  milp::LinExpr obj;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a[static_cast<size_t>(i)].push_back(m.add_binary("a"));
      obj += static_cast<double>(cost(rng)) * milp::LinExpr(a[static_cast<size_t>(i)].back());
    }
  }
  for (int i = 0; i < n; ++i) {
    milp::LinExpr row, col;
    for (int j = 0; j < n; ++j) {
      row += milp::LinExpr(a[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      col += milp::LinExpr(a[static_cast<size_t>(j)][static_cast<size_t>(i)]);
    }
    m.add_eq(std::move(row), 1.0);
    m.add_eq(std::move(col), 1.0);
  }
  m.minimize(obj);
  return m;
}

inline milp::Model make_int_box(uint32_t seed, int n, int rows) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> coef(-5, 5);
  milp::Model m;
  std::vector<milp::Var> xs;
  xs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) xs.push_back(m.add_integer("x", 0, 6));
  for (int r = 0; r < rows; ++r) {
    milp::LinExpr e;
    bool nonzero = false;
    for (int i = 0; i < n; ++i) {
      const int c = coef(rng);
      if (c != 0) {
        e.add_term(xs[static_cast<size_t>(i)], c);
        nonzero = true;
      }
    }
    if (!nonzero) continue;
    m.add_le(std::move(e), 8.0 + static_cast<double>(rng() % 10));
  }
  milp::LinExpr obj;
  for (int i = 0; i < n; ++i) obj += static_cast<double>(coef(rng)) * milp::LinExpr(xs[static_cast<size_t>(i)]);
  m.minimize(obj);
  return m;
}

inline milp::Model make_table3(int nodes, int devices, int kstar) {
  archex::workloads::ScalableConfig cfg;
  cfg.total_nodes = nodes;
  cfg.end_devices = devices;
  const auto sc = archex::workloads::make_scalable(cfg);
  archex::EncoderOptions eopts;
  eopts.k_star = kstar;
  archex::Encoder enc(*sc->tmpl, sc->spec, eopts);
  return enc.encode().model;
}

inline std::vector<Instance> build_family(int kstar, bool smoke_only) {
  std::vector<Instance> out;
  out.push_back({"knapsack-25x5", make_knapsack(11, 25, 5), true});
  out.push_back({"knapsack-35x8", make_knapsack(12, 35, 8), true});
  out.push_back({"setcover-30x24", make_set_cover(21, 30, 24), true});
  out.push_back({"setcover-40x32", make_set_cover(22, 40, 32), true});
  out.push_back({"assignment-8", make_assignment(31, 8), true});
  out.push_back({"intbox-10x8", make_int_box(41, 10, 8), true});
  out.push_back({"table3-30x10", make_table3(30, 10, kstar), true});
  out.push_back({"table3-50x20", make_table3(50, 20, kstar), true});
  if (!smoke_only) {
    out.push_back({"knapsack-45x10", make_knapsack(13, 45, 10), false});
    out.push_back({"assignment-10", make_assignment(32, 10), false});
    out.push_back({"table3-80x30", make_table3(80, 30, kstar), false});
  }
  return out;
}

}  // namespace wnet::bench

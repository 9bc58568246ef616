// Pins the exact search of the quick solver_profile instances. The
// `solver_profile --smoke` gate only caps nodes and LP iterations at +25%
// of bench/solver_profile_baseline.json; a change that claims to leave the
// search untouched (same pivots, tie-breaks and branching) must keep these
// counts exactly. A change that moves the search on purpose updates this
// table and the baseline file together.
#include <gtest/gtest.h>

#include <string>

#include "milp/solver.h"
#include "solver_profile_family.h"

namespace wnet::milp {
namespace {

struct Pinned {
  const char* name;
  double objective;
  long nodes;
  long lp_iterations;
};

// From knapsack through table3-30x10; table3-50x20 takes seconds and stays
// with the smoke run.
constexpr Pinned kPinned[] = {
    {"knapsack-25x5", -159, 312, 907},  {"knapsack-35x8", -217, 582, 2597},
    {"setcover-30x24", 13, 0, 11},      {"setcover-40x32", 15, 3, 47},
    {"assignment-8", 43, 0, 16},        {"intbox-10x8", -69, 3, 14},
    {"table3-30x10", 130, 305, 3425},
};

TEST(SolverProfileCounts, QuickInstancesMatchExactly) {
  // The bench's configuration: default options, its 120 s limit (never
  // reached here) and K* = 6.
  SolveOptions opts;
  opts.time_limit_s = 120.0;
  const auto family = bench::build_family(/*kstar=*/6, /*smoke_only=*/true);
  size_t checked = 0;
  for (const Pinned& want : kPinned) {
    const bench::Instance* inst = nullptr;
    for (const auto& candidate : family) {
      if (candidate.name == want.name) inst = &candidate;
    }
    ASSERT_NE(inst, nullptr) << want.name;
    const MipResult res = solve(inst->model, opts);
    ASSERT_EQ(res.status, SolveStatus::kOptimal) << want.name;
    EXPECT_NEAR(res.objective, want.objective, 1e-6) << want.name;
    EXPECT_EQ(res.stats.nodes, want.nodes) << want.name;
    EXPECT_EQ(res.stats.lp_iterations, want.lp_iterations) << want.name;
    ++checked;
  }
  EXPECT_EQ(checked, std::size(kPinned));
}

}  // namespace
}  // namespace wnet::milp

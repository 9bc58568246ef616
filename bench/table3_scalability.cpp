// Reproduces Table 3 of the paper: constraint counts and solver times of
// the approximate path encoding (Algorithm 1, K*=10) versus the exact full
// enumeration, across growing template sizes.
//
// Like the paper ("measured (or estimated, for larger instances)"), the
// full encoding is materialized only while affordable and analytically
// estimated beyond that; the full MILP is *solved* only on the smallest
// instance — larger ones carry the paper's TO marker. The headline shape:
// approx constraint counts sit orders of magnitude below full, and approx
// solve times stay minutes while full times out almost immediately.
//
// A second A/B compares the approx encoding against its lazy-separation
// variant (EncoderOptions::lazy_separation): the linking and disjointness
// families stay out of the model until the branch-and-bound separates them
// on demand, so the encoded row count drops further at the same optimum.
// The bench exits non-zero when the two runs contradict what each certifies
// (see lazy_gate); `--smoke` runs the two small sizes without a full solve.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/explorer.h"
#include "core/workloads/scenarios.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace wnet;
using namespace wnet::archex;

namespace {

/// The lazy-vs-upfront gate for one size, asserting only what the two runs
/// certify. Both are the same problem, so: a proven infeasibility forbids a
/// solution on the other side; two closed gaps must agree on the optimum;
/// otherwise (a `--gap` stop or a time limit) each incumbent must sit at or
/// above the other side's proven bound. Returns the rule it applied and
/// clears `ok` on a violation.
const char* lazy_gate(const ExplorationResult& up, const ExplorationResult& lazy, bool* ok) {
  const auto tol = [](double v) { return 1e-6 * std::max(1.0, std::abs(v)); };
  if (up.status == milp::SolveStatus::kInfeasible ||
      lazy.status == milp::SolveStatus::kInfeasible) {
    *ok = !up.has_solution() && !lazy.has_solution();
    return "infeasible";
  }
  if (up.has_solution() && lazy.has_solution() && up.gap == 0.0 && lazy.gap == 0.0) {
    *ok = std::abs(up.objective - lazy.objective) <= tol(up.objective);
    return "exact";
  }
  const auto above = [&](const ExplorationResult& a, const ExplorationResult& b) {
    return !a.has_solution() || !(b.bound > -milp::kInf) || a.objective >= b.bound - tol(b.bound);
  };
  *ok = above(up, lazy) && above(lazy, up);
  return "bound";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv,
                   {{"time-limit", "45"},
                    {"full-time-limit", "120"},
                    {"gap", "0.05"},
                    {"kstar", "10"},
                    {"full-build-max-nodes", "60"},
                    {"full-solve-max-nodes", "35"},
                    {"paper", "0"},
                    {"smoke", "0"},
                    {"threads", "1"}});  // encoder candidate-generation workers; 0 = all cores

  std::vector<std::pair<int, int>> sizes = {{30, 10}, {50, 20}, {80, 30}, {120, 50}};
  int full_solve_max_nodes = args.geti("full-solve-max-nodes");
  if (args.getb("smoke")) {
    sizes = {{30, 10}, {50, 20}};
    full_solve_max_nodes = 0;
  } else if (args.getb("paper")) {
    sizes = {{50, 20},  {100, 20}, {100, 50}, {100, 75}, {250, 50},
             {250, 100}, {250, 200}, {500, 50}, {500, 100}, {500, 200}};
  }

  util::Table table({"#Nodes", "#End devices", "#Constraints full", "#Constraints approx",
                     "Time full (s)", "Time approx (s)"});
  util::Table lazy_table({"#Nodes", "#End devices", "Rows upfront", "Rows lazy", "Omitted",
                          "Cuts activated", "Nodes up/lazy", "Time up/lazy (s)", "Gate"});
  bool ok = true;
  double last_row_ratio = 0.0;

  for (const auto& [nodes, devices] : sizes) {
    workloads::ScalableConfig cfg;
    cfg.total_nodes = nodes;
    cfg.end_devices = devices;
    const auto sc = workloads::make_scalable(cfg);

    // --- Approximate encoding: build and solve.
    EncoderOptions approx;
    approx.k_star = args.geti("kstar");
    approx.threads = util::resolve_threads(args.geti("threads"));
    milp::SolveOptions so;
    so.time_limit_s = args.getd("time-limit");
    so.rel_gap = args.getd("gap");
    Explorer ex(*sc->tmpl, sc->spec);
    const auto ares = ex.explore(approx, so);
    const std::string approx_cons = std::to_string(ares.encode_stats.num_constrs);
    const std::string approx_time = ares.has_solution()
                                        ? util::fmt_double(ares.total_time_s, 1)
                                        : std::string(milp::to_string(ares.status));

    // --- Lazy separation A/B: same options, skeleton-only encode, rows
    // recovered on demand. The optimum must not move.
    EncoderOptions lazy = approx;
    lazy.lazy_separation = true;
    const auto lres = ex.explore(lazy, so);
    bool row_ok = true;
    const char* rule = lazy_gate(ares, lres, &row_ok);
    if (!row_ok) {
      std::fprintf(stderr,
                   "FAIL %dx%d (%s rule): upfront %.9g (bound %.9g) vs lazy %.9g (bound %.9g)\n",
                   nodes, devices, rule, ares.has_solution() ? ares.objective : milp::kInf,
                   ares.bound, lres.has_solution() ? lres.objective : milp::kInf, lres.bound);
      ok = false;
    }
    last_row_ratio = static_cast<double>(ares.encode_stats.num_constrs) /
                     static_cast<double>(std::max(1, lres.encode_stats.num_constrs));
    lazy_table.add_row(
        {std::to_string(nodes), std::to_string(devices),
         std::to_string(ares.encode_stats.num_constrs),
         std::to_string(lres.encode_stats.num_constrs),
         std::to_string(lres.encode_stats.lazy_rows_omitted),
         std::to_string(lres.solve_stats.cuts_lp_rows),
         std::to_string(ares.solve_stats.nodes) + "/" + std::to_string(lres.solve_stats.nodes),
         util::fmt_double(ares.total_time_s, 1) + "/" + util::fmt_double(lres.total_time_s, 1),
         std::string(rule) + (row_ok ? "" : " FAIL")});

    // --- Full encoding: count (measured or estimated), solve if tiny.
    EncoderOptions full;
    full.mode = EncoderOptions::PathMode::kFull;
    Encoder fenc(*sc->tmpl, sc->spec, full);
    std::string full_cons;
    if (nodes <= args.geti("full-build-max-nodes")) {
      full_cons = std::to_string(fenc.encode().stats.num_constrs);
    } else {
      full_cons = "~" + std::to_string(fenc.estimate_full_stats().num_constrs);
    }
    std::string full_time = args.getb("smoke") ? "-" : "TO";
    if (nodes <= full_solve_max_nodes) {
      milp::SolveOptions fso = so;
      fso.time_limit_s = args.getd("full-time-limit");
      const auto fres = ex.explore(full, fso);
      full_time = fres.status == milp::SolveStatus::kOptimal
                      ? util::fmt_double(fres.total_time_s, 1)
                      : "TO(" + util::fmt_double(fres.total_time_s, 0) + "s)";
    }

    table.add_row({std::to_string(nodes), std::to_string(devices), full_cons, approx_cons,
                   full_time, approx_time});
    std::fflush(stdout);
  }

  std::printf("K*=%d; 'TO' marks instances past the timeout, '~' analytic estimates\n",
              args.geti("kstar"));
  bench::print_table("Table 3: problem size and time, full vs approximate encoding", table);
  bench::print_table("Lazy separation A/B: encoded rows upfront vs separated on demand",
                     lazy_table);
  std::printf("row reduction at largest instance: %.2fx fewer encoded rows with lazy separation\n",
              last_row_ratio);
  return ok ? 0 : 1;
}

// table1-cost: the paper's Table 1 data-collection design at the
// table1_data_collection bench defaults (12 sensors, a 6x5 relay grid,
// K*=10, `$` objective, rel_gap 0.03), explored to a certified answer on two
// sensor scatters in turn.
// Branch-and-bound and the simplex do almost all of the work; encode is a
// fraction of a percent, so encoder, Yen and path-loss changes should read
// "no change" here.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/explorer.h"
#include "core/solution.h"
#include "core/workloads/scenarios.h"
#include "probes.h"
#include "util/stopwatch.h"
#include "workloads.h"

namespace wnet::perfbench {

namespace {

using archex::workloads::Scenario;

constexpr int kKStar = 10;
constexpr double kRelGap = 0.03;
constexpr double kTimeLimitS = 45.0;
constexpr int kSetupSamplesPerIteration = 25;

/// The two sensor scatters (DataCollectionConfig::seed) every run
/// certifies, with their recorded optima. Of scatter seeds 1-16, three (2, 5,
/// 7) end at the 45 s limit uncertified and the others certify in 0.4-18 s,
/// so a scatter per seed would measure which scatter a seed drew, not the
/// program; and even these two differ by about a quarter in certify time, so
/// every run certifies both, as often as each other.
struct Scatter {
  uint64_t seed;
  double objective;
};
constexpr Scatter kScatters[] = {{1, 200.0}, {3, 190.0}};

/// The scatters in the order a run explores them: the seed's parity picks
/// which one goes first.
std::vector<Scatter> scatter_order(uint64_t seed) {
  if (seed % 2 == 1) return {kScatters[0], kScatters[1]};
  return {kScatters[1], kScatters[0]};
}

archex::workloads::DataCollectionConfig config(const RunOptions& opts, const Scatter& scatter) {
  archex::workloads::DataCollectionConfig cfg;
  cfg.sensors = opts.reduced ? 6 : 12;
  cfg.relay_grid_x = opts.reduced ? 4 : 6;
  cfg.relay_grid_y = opts.reduced ? 3 : 5;
  cfg.seed = scatter.seed;
  return cfg;
}

archex::EncoderOptions encoder_options() {
  archex::EncoderOptions eo;
  eo.k_star = kKStar;
  return eo;
}

milp::SolveOptions solve_options() {
  milp::SolveOptions so;
  so.time_limit_s = kTimeLimitS;
  so.rel_gap = kRelGap;
  return so;
}

/// Checks one answer: certified at the stated gap, verified by
/// verify_architecture, the scatter's recorded objective within that gap,
/// and the same node and LP-iteration counts as the run's first answer on
/// that scatter (the search is deterministic when no limit is hit).
void check_answer(const RunOptions& opts, const Scatter& scatter,
                  const archex::ExplorationResult& r, const Scenario& sc,
                  const archex::ExplorationResult* first, Report& report) {
  std::string problems;
  if (r.status != milp::SolveStatus::kOptimal || !(r.gap <= kRelGap)) {
    problems += " not certified (status " + std::string(milp::to_string(r.status)) + ", gap " +
                std::to_string(r.gap) + ");";
  }
  if (r.has_solution() && !archex::verify_architecture(r.architecture, *sc.tmpl, sc.spec).ok) {
    problems += " verify_architecture reports violations;";
  }
  if (!opts.reduced) {
    const double ref = scatter.objective;
    if (std::abs(r.objective - ref) > kRelGap * std::max(1.0, std::abs(ref))) {
      problems += " objective " + std::to_string(r.objective) + " vs reference " +
                  std::to_string(ref) + ";";
    }
  }
  if (first != nullptr && (r.solve_stats.nodes != first->solve_stats.nodes ||
                           r.solve_stats.lp_iterations != first->solve_stats.lp_iterations)) {
    problems += " node/iteration counts differ between repeats;";
  }
  report.check(problems.empty(), "table1-cost:" + problems);
  report.simd_level = r.solve_stats.simd_level;
}

struct Timed {
  archex::ExplorationResult result;
  double seconds = 0.0;
};

Timed explore_once(const Scenario& sc) {
  const archex::Explorer ex(*sc.tmpl, sc.spec);
  util::Stopwatch sw;
  Timed t;
  t.result = ex.explore(encoder_options(), solve_options());
  t.seconds = sw.seconds();
  return t;
}

}  // namespace

void run_table1_cost(const RunOptions& opts, Report& report, LayerValues& layers) {
  const std::vector<Scatter> scatters = scatter_order(opts.seed);
  const auto make = [&](const Scatter& s) {
    return archex::workloads::make_data_collection(config(opts, s));
  };
  // A scenario ready to explore: built, with its path-loss cache filled.
  const auto make_ready = [&](const Scatter& s) {
    auto sc = make(s);
    (void)sc->tmpl->build_graph();
    return sc;
  };
  if (opts.reduced) report.notes.push_back("reduced size: objective reference check skipped");

  if (!opts.trace) {
    // Set-up is both scenarios (floor plan, channel model, template with its
    // path-loss cache, spec) and their explorers. Filling the cache here
    // keeps it out of the certify time, where it is a few hundredths of a
    // percent, and gives set-up enough compute to time steadily: without it
    // a set-up took 17 or 25 us depending on the process.
    const auto setup = [&] {
      std::vector<std::unique_ptr<Scenario>> both;
      for (const Scatter& s : scatters) {
        both.push_back(make_ready(s));
        (void)archex::Explorer(*both.back()->tmpl, both.back()->spec);
      }
      return both;
    };
    std::vector<double> setup_s;
    std::vector<double> op_ms;
    double measured_s = 0.0;
    std::map<uint64_t, archex::ExplorationResult> first;
    repeat_for(opts.seconds, [&] {
      util::Stopwatch iteration;
      time_setups(kSetupSamplesPerIteration, setup, setup_s);
      for (const Scatter& s : scatters) {
        const auto sc = make_ready(s);
        const Timed t = explore_once(*sc);
        op_ms.push_back(t.seconds * 1e3);
        measured_s += t.seconds;
        const auto it = first.find(s.seed);
        check_answer(opts, s, t.result, *sc, it == first.end() ? nullptr : &it->second, report);
        first.emplace(s.seed, t.result);
      }
      return iteration.seconds();
    });
    add_end_to_end(report, setup_s, op_ms, measured_s);
    return;
  }

  // The traced run explores the seed's first scatter.
  const Scatter& scatter = scatters.front();
  const auto plain = make_ready(scatter);
  const Timed untraced = explore_once(*plain);
  check_answer(opts, scatter, untraced.result, *plain, nullptr, report);

  util::obs::TraceRecorder::global().set_enabled(true);
  const auto sc = make_ready(scatter);
  const archex::Explorer ex(*sc->tmpl, sc->spec);
  double traced_s = 0.0;
  archex::ExplorationResult r;
  {
    LayerSpan span("bench/explorer.explore", &traced_s);
    r = ex.explore(encoder_options(), solve_options());
  }
  check_answer(opts, scatter, r, *sc, &untraced.result, report);
  explore_metrics(r, traced_s, layers);
  verify_metrics(r, *sc, layers);
  layers["trace.overhead_ratio"] = traced_s / untraced.seconds;

  // Outside-in replays on a fresh copy of the same template.
  const auto fresh = make(scatter);
  probe_yen(build_graph_timed(*fresh, layers), fresh->spec, kKStar, layers);
  encode_modes(*fresh, kKStar, layers);
  probe_delta(*fresh, {1, 3, 5, 8}, layers);
  probe_simplex(ex.encode(encoder_options()).model, layers);
  probe_decode(*fresh, 3, solve_options(), report, layers);
  const auto lines = probe_service(make(scatter), {1, 3}, 6, report, layers);
  probe_json(lines, report, layers);
}

}  // namespace wnet::perfbench

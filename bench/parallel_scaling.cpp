// Parallel-exploration scaling harness, on the Table-3 scalability
// workload: median wall clock of a fault-injection campaign replay
// (independent scenario scoring, fanned out by faults::CampaignRunner) as
// the worker count grows. The architecture under test comes from one
// serial Sec. 4.3 K*-ladder search and is replayed at every thread count.
//
// Besides speedup, every multi-threaded campaign is checked against the
// serial one: its JSON report must be byte-identical. The determinism
// guarantee is the point — parallelism must never change a result, only how
// fast it arrives. Speedup tops out at the machine's physical core count; on
// a single-core host every row stays near 1x.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/explorer.h"
#include "core/faults/campaign.h"
#include "core/faults/fault_model.h"
#include "core/workloads/scenarios.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace wnet;
using namespace wnet::archex;

int main(int argc, char** argv) {
  bench::Args args(argc, argv,
                   {{"nodes", "80"},
                    {"devices", "30"},
                    {"time-limit", "30"},
                    {"gap", "0.05"},
                    {"draws", "2000"},
                    {"sigma", "2.0"},
                    {"threads", "0"}});

  workloads::ScalableConfig cfg;
  cfg.total_nodes = args.geti("nodes");
  cfg.end_devices = args.geti("devices");
  const auto sc = workloads::make_scalable(cfg);
  std::printf("template: %d nodes, %zu routes | hardware threads: %d\n",
              sc->tmpl->num_nodes(), sc->spec.routes.size(), util::resolve_threads(0));

  std::vector<int> counts = {1, 2, 4, 8};
  if (args.geti("threads") > 0) counts = {1, args.geti("threads")};

  const Explorer ex(*sc->tmpl, sc->spec);
  milp::SolveOptions so;
  so.time_limit_s = args.getd("time-limit");
  so.rel_gap = args.getd("gap");
  Explorer::KStarSearchOptions ko;
  ko.ladder = {1, 3, 5, 10};
  const util::Stopwatch lsw;
  const auto sr = ex.search_k_star(ko, {}, so);
  if (!sr.best.has_solution()) {
    std::printf("K* ladder found no architecture — aborting\n");
    return 1;
  }
  std::printf("ladder {1,3,5,10}: K* = %d, objective %.6g, %.2f s\n", sr.chosen_k,
              sr.best.objective, lsw.seconds());

  // One scenario list (generation is serial and deterministic), replayed
  // against the same architecture at every thread count.
  faults::FaultModelConfig fc;
  fc.max_simultaneous_failures = 2;
  fc.fading_draws = args.geti("draws");
  fc.fading_sigma_db = args.getd("sigma");
  const faults::FaultModel fm(*sc->tmpl, sc->spec, fc);
  const std::vector<faults::FaultScenario> scenarios = fm.scenarios(sr.best.architecture);

  // One replay takes milliseconds at small sizes, so each thread count
  // replays until kMinSeconds have passed (at least kMinReplays times) and
  // reports the median seconds per replay. Every replay's report must be
  // byte-identical to the first serial one.
  constexpr double kMinSeconds = 0.5;
  constexpr size_t kMinReplays = 3;
  util::Table table({"Threads", "Replays", "Replay (s, median)", "Speedup", "Identical"});
  double campaign_base_s = 0.0;
  std::string serial_json;
  for (const int t : counts) {
    faults::CampaignOptions copts;
    copts.threads = t;
    const faults::CampaignRunner runner(*sc->tmpl, sc->spec, copts);
    std::vector<double> replay_s;
    bool identical = true;
    const util::Stopwatch total;
    while (replay_s.size() < kMinReplays || total.seconds() < kMinSeconds) {
      const util::Stopwatch csw;
      const std::string json = runner.run(sr.best.architecture, scenarios).to_json();
      replay_s.push_back(csw.seconds());
      if (serial_json.empty()) serial_json = json;
      identical = identical && json == serial_json;
    }
    std::sort(replay_s.begin(), replay_s.end());
    const double campaign_s = replay_s[replay_s.size() / 2];
    if (t == counts.front()) campaign_base_s = campaign_s;
    table.add_row({std::to_string(t), std::to_string(replay_s.size()),
                   util::fmt_double(campaign_s, 4),
                   util::fmt_double(campaign_base_s / std::max(1e-9, campaign_s), 2),
                   identical ? "yes" : "NO"});
    if (!identical) {
      std::printf("DETERMINISM VIOLATION at %d threads\n", t);
      bench::print_table("Parallel scaling (ABORTED)", table);
      return 1;
    }
    std::fflush(stdout);
  }

  std::printf("%d scenarios per campaign\n", static_cast<int>(scenarios.size()));
  bench::print_table("Fault-campaign scaling (Table-3 workload)", table);
  return 0;
}

#pragma once

// The three benchmark workloads. Each one fills `report` and, in a traced
// run (RunOptions::trace), `layers`:
//   - untraced: runs its operation for RunOptions::seconds, checks every
//     answer and adds the end-to-end metrics;
//   - traced: runs the operation once untraced and once traced (for
//     trace.overhead_ratio), checks both, and fills the per-layer metrics
//     from spans around the calls plus the outside-in layer replays.
// README.md in this directory says why each workload was chosen.

#include "common.h"

namespace wnet::perfbench {

/// Table 1 data-collection design, `$` objective: one Explorer::explore to a
/// certified answer per operation.
void run_table1_cost(const RunOptions& opts, Report& report, LayerValues& layers);

/// Table 3 size family compiled in approx, lazy and full mode, no solver:
/// one pass over the family per operation.
void run_table3_encode(const RunOptions& opts, Report& report, LayerValues& layers);

/// In-process wnetd: two closed-loop clients feeding strict JSONL to a
/// two-worker SolveService; one request per operation.
void run_wnetd_mix(const RunOptions& opts, Report& report, LayerValues& layers);

}  // namespace wnet::perfbench

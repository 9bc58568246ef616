#include "core/explorer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "core/encode/separation.h"
#include "graph/digraph.h"
#include "util/obs/json.h"
#include "util/obs/trace.h"
#include "util/stopwatch.h"

namespace wnet::archex {

Explorer::Explorer(const NetworkTemplate& tmpl, const Specification& spec)
    : tmpl_(&tmpl), spec_(&spec) {}

std::string ExplorationResult::solver_json() const {
  // The objective is non-finite on infeasible/unbounded runs; the obs
  // writer turns it into null + an "objective_finite": false sidecar
  // instead of emitting invalid bare inf/nan.
  util::obs::JsonWriter w;
  w.begin_object();
  w.field("status", milp::to_string(status));
  w.number_field("objective", objective);
  w.number_field("total_time_s", total_time_s);
  w.field("termination", util::exec::to_string(termination));
  w.number_field("bound", bound);
  w.number_field("gap", gap);
  w.key("encode").begin_object();
  w.field("vars", encode_stats.num_vars);
  w.field("constrs", encode_stats.num_constrs);
  w.field("nonzeros", encode_stats.nonzeros);
  w.field("candidate_paths", encode_stats.candidate_paths);
  w.field("lazy_rows_omitted", encode_stats.lazy_rows_omitted);
  w.number_field("encode_time_s", encode_stats.encode_time_s);
  w.field("reused_candidates", encode_stats.reused_candidates);
  w.number_field("delta_encode_time_s", encode_stats.delta_encode_time_s);
  w.field("termination", util::exec::to_string(encode_stats.termination));
  w.end_object();
  w.key("solver").raw(solve_stats.to_json());
  w.end_object();
  return w.take();
}

namespace {

/// Fixed-routing warm start (the paper's K* = 1 regime as a primal
/// heuristic): greedily select the lowest-path-loss candidate per replica
/// group, respecting edge-disjointness within a route, fix those selectors,
/// and solve the remaining sizing-only MILP briefly. Its solution seeds the
/// main search as an incumbent. Returns empty on any failure.
std::vector<double> fixed_routing_start(const EncodedProblem& ep,
                                        const milp::SolveOptions& sopts) {
  if (ep.candidates.empty()) return {};

  std::map<std::pair<int, int>, const CandidatePath*> picked;
  std::set<std::pair<int, int>> groups;
  for (const auto& c : ep.candidates) groups.insert({c.route_index, c.replica});

  for (const auto& g : groups) {
    const CandidatePath* best = nullptr;
    for (const auto& c : ep.candidates) {
      if (c.route_index != g.first || c.replica != g.second) continue;
      bool clash = false;
      for (const auto& [og, oc] : picked) {
        if (og.first == g.first && og.second != g.second &&
            graph::shared_edges(c.path, oc->path) > 0) {
          clash = true;
          break;
        }
      }
      if (clash) continue;
      if (best == nullptr || c.path.cost < best->path.cost) best = &c;
    }
    if (best == nullptr) return {};  // no disjoint pick: skip the heuristic
    picked[g] = best;
  }

  return solve_with_fixed_selectors(ep, picked, sopts);
}

}  // namespace

std::vector<double> solve_with_fixed_selectors(
    const EncodedProblem& ep,
    const std::map<std::pair<int, int>, const CandidatePath*>& picked,
    const milp::SolveOptions& sopts) {
  milp::Model restricted = ep.model;
  for (const auto& c : ep.candidates) {
    const auto it = picked.find({c.route_index, c.replica});
    const bool on = it != picked.end() && it->second == &c;
    restricted.set_bounds(c.selector, on ? 1.0 : 0.0, on ? 1.0 : 0.0);
  }
  milp::SolveOptions wopts = sopts;
  // The probe gets a slice of the solve budget, but never more than the
  // caller's own limit or what is actually left on the request deadline —
  // the old unconditional 5s floor could hand an almost-exhausted run a
  // fresh five seconds of warm-start work.
  const double slice = std::min(30.0, std::max(5.0, 0.2 * sopts.time_limit_s));
  const double cap = std::min(sopts.time_limit_s, std::max(0.0, sopts.exec.deadline.remaining_s()));
  wopts.time_limit_s = std::min(slice, cap);
  wopts.rel_gap = std::max(sopts.rel_gap, 0.01);
  wopts.mip_start.clear();
  // The caller's cutoff describes the FULL model's incumbent, but this
  // probe solves a restriction whose optimum may legitimately tie it (the
  // restriction that produced the incumbent) or sit above it. Keeping the
  // cutoff here used to flip such probes to kNoSolution and silently drop
  // the warm start; the restricted solve must run uncut.
  wopts.cutoff = milp::kInf;
  // Likewise the bound-feedback hook: a restricted model's dual bound is
  // not a bound on the full problem, so it must never be published as one.
  wopts.on_bound_improved = nullptr;
  const milp::MipResult wres = milp::solve(restricted, wopts);
  return wres.has_solution() ? wres.x : std::vector<double>{};
}

EncodedProblem Explorer::encode(const EncoderOptions& eopts) const {
  Encoder enc(*tmpl_, *spec_, eopts);
  return enc.encode();
}

namespace {

/// The solve every explore() and explore_rung() call ends in, after its
/// encode: lazy-separation install, fixed-routing probe when the caller
/// brought no MIP start, main solve, decode. `clock` started with the call,
/// so sopts.time_limit_s bounds encode, probe and solve together. A
/// solution updates `carry` when one is given.
ExplorationResult solve_encoded(const NetworkTemplate& tmpl, const Specification& spec,
                                const EncodedProblem& ep, bool lazy_separation,
                                milp::SolveOptions sopts, const util::Stopwatch& clock,
                                Explorer::RungCarry* carry) {
  ExplorationResult out;
  out.encode_stats = ep.stats;
  if (ep.stats.termination != util::exec::TerminationReason::kCompleted) {
    // The encode stopped or aborted: its model must not be solved. Report
    // the stop reason with the empty anytime certificate.
    out.termination = ep.stats.termination;
    out.total_time_s = clock.seconds();
    return out;
  }
  if (lazy_separation) {
    // The omitted row families come back as separation callbacks, rebuilt
    // per call so the snapshot covers every selector of the current model.
    // They are installed before the warm-start probe runs so the probe's
    // restricted solve (same var ids) is gated by the same lazy constraints
    // and never hands back a lazily-infeasible seed.
    LazySeparation(tmpl, ep).install(sopts);
  }
  // The probe may not run past what encode left of the call's budget, and
  // the main solve gets only what remains after both.
  const double limit_s = sopts.time_limit_s;
  const auto remaining_s = [&] { return std::max(0.0, limit_s - clock.seconds()); };
  if (sopts.mip_start.empty()) {
    milp::SolveOptions probe_opts = sopts;
    probe_opts.exec.deadline = sopts.exec.deadline.tightened(remaining_s());
    sopts.mip_start = fixed_routing_start(ep, probe_opts);
  }
  sopts.time_limit_s = remaining_s();
  const milp::MipResult res = milp::solve(ep.model, sopts);
  out.status = res.status;
  out.solve_stats = res.stats;
  out.termination = res.stats.termination;
  out.bound = res.stats.bound;
  out.gap = res.stats.gap;
  if (res.has_solution()) {
    out.objective = res.objective;
    out.architecture = decode_solution(ep, tmpl, spec, res.x);
    if (carry != nullptr) {
      carry->x = res.x;
      carry->objective = res.objective;
    }
  }
  out.total_time_s = clock.seconds();
  return out;
}

}  // namespace

ExplorationResult Explorer::explore(const EncoderOptions& eopts,
                                    const milp::SolveOptions& sopts) const {
  const util::Stopwatch clock;
  // The Encoder's Yen state and graph copies die with this statement, before
  // the solve starts.
  const EncodedProblem ep = Encoder(*tmpl_, *spec_, eopts).encode();
  return solve_encoded(*tmpl_, *spec_, ep, eopts.lazy_separation, sopts, clock, nullptr);
}

ExplorationResult Explorer::explore_rung(IncrementalEncoder& session, int k, RungCarry& carry,
                                         const milp::SolveOptions& sopts) const {
  const util::Stopwatch clock;
  util::obs::ScopedSpan rung_span("kstar/rung", "explore");
  rung_span.arg("k", k);
  const EncodedProblem& ep = session.encode_k(k);
  milp::SolveOptions so = sopts;
  if (so.mip_start.empty()) {
    // A delta-extended model takes the previous rung's incumbent as its
    // start and that objective as a cutoff; a rebuilt one extends nothing
    // and falls back to the probe.
    so.mip_start = session.extend_assignment(carry.x);
    if (!so.mip_start.empty()) so.cutoff = carry.objective;
  }
  return solve_encoded(*tmpl_, *spec_, ep, session.options().lazy_separation, std::move(so),
                       clock, &carry);
}

Explorer::KStarSearchResult Explorer::search_k_star(const KStarSearchOptions& kopts,
                                                    EncoderOptions eopts,
                                                    const milp::SolveOptions& sopts) const {
  eopts.mode = EncoderOptions::PathMode::kApprox;
  // Incremental mode: one encoding session spans the ladder, so a rung
  // delta-extends the previous model instead of re-running Yen and
  // rebuilding, and starts from the previous rung's incumbent and cutoff.
  // Otherwise each rung gets a fresh session and runs as explore() would.
  std::unique_ptr<IncrementalEncoder> session;
  RungCarry carry;
  KStarScan scan(kopts.min_improvement);
  for (const int k : kopts.ladder) {
    // Ladder-boundary checkpoint (rung solves poll the same token): a stop
    // keeps everything scanned so far.
    util::exec::TerminationReason why = util::exec::TerminationReason::kCompleted;
    if (sopts.exec.checkpoint(&why)) {
      scan.stop(why);
      break;
    }
    if (!session || !kopts.incremental) {
      session.reset();
      session = std::make_unique<IncrementalEncoder>(*tmpl_, *spec_, eopts);
    }
    if (!scan.step(k, explore_rung(*session, k, carry, sopts))) break;
    if (scan.result().trace.back().second.total_time_s > kopts.time_threshold_s) break;
  }
  return scan.take();
}

bool KStarScan::step(int k, ExplorationResult r) {
  const util::exec::TerminationReason term = r.termination;
  const double best = out_.best.objective;
  improved_ = r.has_solution() &&
              (!out_.best.has_solution() ||
               r.objective < best - min_improvement_ * std::max(1.0, std::abs(best)));
  out_.trace.emplace_back(k, r);
  if (improved_) {
    out_.chosen_k = k;
    out_.best = std::move(r);
  }
  if (cut_short(term)) {
    out_.termination = term;
    return false;
  }
  return improved_ || out_.chosen_k == 0;  // no meaningful improvement: stop (Sec. 4.3)
}

}  // namespace wnet::archex

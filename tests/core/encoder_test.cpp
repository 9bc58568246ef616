#include "core/encode/encoder.h"

#include <gtest/gtest.h>

#include "channel/propagation.h"
#include "core/explorer.h"
#include "core/solution.h"
#include "milp/solver.h"

namespace wnet::archex {
namespace {

/// Tiny deterministic test bed: two sensors, one sink, four relay
/// candidates in a 30 x 20 m free-space arena. Small enough for the full
/// encoding to solve fast, rich enough to need relays when LQ is strict.
class TinyScenario : public ::testing::Test {
 protected:
  TinyScenario() : model_(2.4e9, 2.0), lib_(make_reference_library()), tmpl_(model_, lib_) {
    tmpl_.add_node({"s0", {0, 10}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"s1", {10, 0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"sink", {30, 10}, Role::kSink, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"r0", {10, 10}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    tmpl_.add_node({"r1", {20, 10}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    tmpl_.add_node({"r2", {15, 5}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
    tmpl_.add_node({"r3", {20, 16}, Role::kRelay, NodeKind::kCandidate, std::nullopt});

    spec_.radio.noise_floor_dbm = -100.0;
    spec_.objective = {1.0, 0.0, 0.0};
    for (const char* s : {"s0", "s1"}) {
      RouteRequirement r;
      r.source = *tmpl_.find_node(s);
      r.dest = *tmpl_.find_node("sink");
      r.replicas = 1;
      spec_.routes.push_back(r);
    }
  }

  ExplorationResult run(EncoderOptions::PathMode mode, int k = 5) {
    EncoderOptions eo;
    eo.mode = mode;
    eo.k_star = k;
    milp::SolveOptions so;
    so.time_limit_s = 60.0;
    Explorer ex(tmpl_, spec_);
    return ex.explore(eo, so);
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
  Specification spec_;
};

TEST_F(TinyScenario, ApproxSolvesAndVerifies) {
  spec_.link_quality.min_snr_db = 20.0;
  const auto res = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
  EXPECT_EQ(res.architecture.routes.size(), 2u);
}

TEST_F(TinyScenario, FullSolvesAndVerifies) {
  spec_.link_quality.min_snr_db = 20.0;
  const auto res = run(EncoderOptions::PathMode::kFull);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(TinyScenario, FullAndApproxAgreeOnOptimalCost) {
  spec_.link_quality.min_snr_db = 20.0;
  const auto full = run(EncoderOptions::PathMode::kFull);
  const auto approx = run(EncoderOptions::PathMode::kApprox, 8);
  ASSERT_TRUE(full.has_solution());
  ASSERT_TRUE(approx.has_solution());
  // The approximation can only lose candidates, never gain: approx >= full,
  // and on this tiny instance the Yen pool covers the optimum.
  EXPECT_GE(approx.objective, full.objective - 1e-6);
  EXPECT_NEAR(approx.objective, full.objective, 1e-6);
}

/// The encoder options the problem-size tests compare under.
EncoderOptions size_options(EncoderOptions::PathMode mode) {
  EncoderOptions o;
  o.mode = mode;
  o.k_star = 5;
  o.loc_candidates = 20;
  o.lq_prefilter = true;
  return o;
}

TEST_F(TinyScenario, ApproxProblemIsSmaller) {
  spec_.link_quality.min_snr_db = 20.0;
  Encoder full(tmpl_, spec_, size_options(EncoderOptions::PathMode::kFull));
  Encoder approx(tmpl_, spec_, size_options(EncoderOptions::PathMode::kApprox));
  const auto fs = full.encode().stats;
  const auto as = approx.encode().stats;
  EXPECT_LT(as.num_constrs, fs.num_constrs);
  EXPECT_LT(as.num_vars, fs.num_vars);
}

TEST_F(TinyScenario, StrictLqForcesStrongerOrMoreHardware) {
  spec_.link_quality.min_snr_db = 20.0;
  const double relaxed = run(EncoderOptions::PathMode::kApprox).objective;
  spec_.link_quality.min_snr_db = 45.0;  // forces short hops / strong parts
  const auto strict = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(strict.has_solution()) << to_string(strict.status);
  EXPECT_GE(strict.objective, relaxed - 1e-9);
  const auto rep = verify_architecture(strict.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(TinyScenario, DisjointReplicasAreEdgeDisjoint) {
  spec_.link_quality.min_snr_db = 20.0;
  spec_.routes[0].replicas = 2;
  const auto res = run(EncoderOptions::PathMode::kApprox, 8);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
  // Three chosen routes in total (2 + 1).
  EXPECT_EQ(res.architecture.routes.size(), 3u);
}

TEST_F(TinyScenario, MaxHopsHonored) {
  spec_.link_quality.min_snr_db = 20.0;
  spec_.routes[0].max_hops = 2;
  spec_.routes[1].max_hops = 2;
  const auto res = run(EncoderOptions::PathMode::kApprox, 8);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  for (const auto& r : res.architecture.routes) {
    EXPECT_LE(r.path.hops(), 2);
  }
}

TEST_F(TinyScenario, InfeasibleLqReportedInfeasible) {
  spec_.link_quality.min_rss_dbm = 10.0;  // beyond any EIRP at any distance
  const auto res = run(EncoderOptions::PathMode::kApprox);
  EXPECT_FALSE(res.has_solution());
}

TEST_F(TinyScenario, LifetimeRequirementSatisfiedAndVerified) {
  spec_.link_quality.min_snr_db = 20.0;
  spec_.lifetime = LifetimeRequirement{5.0, 3000.0};
  const auto res = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  EXPECT_GE(res.architecture.min_lifetime_years, 5.0 - 1e-6);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(TinyScenario, EnergyObjectivePrefersLowPowerParts) {
  spec_.link_quality.min_snr_db = 20.0;
  spec_.lifetime = LifetimeRequirement{1.0, 3000.0};
  spec_.objective = {1.0, 0.0, 0.0};
  const auto cost_run = run(EncoderOptions::PathMode::kApprox);
  spec_.objective = {0.0, 1.0, 0.0};
  const auto energy_run = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(cost_run.has_solution());
  ASSERT_TRUE(energy_run.has_solution());
  // Optimizing energy cannot consume more charge than optimizing cost, and
  // the $-optimal design cannot cost more than the energy-optimal one.
  EXPECT_LE(energy_run.architecture.total_charge_per_cycle_mas,
            cost_run.architecture.total_charge_per_cycle_mas + 1e-9);
  EXPECT_LE(cost_run.architecture.total_cost_usd,
            energy_run.architecture.total_cost_usd + 1e-9);
}

TEST_F(TinyScenario, KStarSearchImprovesOrStops) {
  spec_.link_quality.min_snr_db = 20.0;
  Explorer ex(tmpl_, spec_);
  Explorer::KStarSearchOptions ko;
  ko.ladder = {1, 3, 5};
  milp::SolveOptions so;
  so.time_limit_s = 30.0;
  const auto sr = ex.search_k_star(ko, {}, so);
  ASSERT_GT(sr.chosen_k, 0);
  ASSERT_TRUE(sr.best.has_solution());
  // Objective along the trace is non-increasing wherever solved.
  double prev = milp::kInf;
  for (const auto& [k, r] : sr.trace) {
    if (r.has_solution()) {
      EXPECT_LE(r.objective, prev + 1e-6);
      prev = r.objective;
    }
  }
}

TEST_F(TinyScenario, EstimatorTracksRealFullEncoding) {
  spec_.link_quality.min_snr_db = 20.0;
  Encoder full(tmpl_, spec_, size_options(EncoderOptions::PathMode::kFull));
  const auto real = full.encode().stats;
  const auto est = full.estimate_full_stats();
  // The estimator mirrors the emitters analytically; allow a small slack
  // for data-dependent skips (empty balance rows, redundant implications).
  EXPECT_NEAR(est.num_vars, real.num_vars, 0.15 * real.num_vars);
  EXPECT_NEAR(est.num_constrs, real.num_constrs, 0.15 * real.num_constrs);
}

TEST_F(TinyScenario, DecodeReportsActiveLinksWithSaneRss) {
  spec_.link_quality.min_snr_db = 20.0;
  const auto res = run(EncoderOptions::PathMode::kApprox);
  ASSERT_TRUE(res.has_solution());
  ASSERT_FALSE(res.architecture.links.empty());
  for (const auto& l : res.architecture.links) {
    EXPECT_GE(l.rss_dbm, -80.0 - 1e-6);  // floor = SNR 20 + noise -100
    EXPECT_LE(l.rss_dbm, 10.0);
  }
}

}  // namespace
}  // namespace wnet::archex

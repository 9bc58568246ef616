#include "core/explorer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "channel/propagation.h"
#include "core/solution.h"
#include "core/workloads/scenarios.h"

namespace wnet::archex {
namespace {

/// A slightly larger fixture than TinyScenario: three sensors on a 50 m
/// floor strip where direct links fail a 35 dB SNR bound, so routing truly
/// passes through relays and the warm-start heuristic has work to do.
class ExplorerScenario : public ::testing::Test {
 protected:
  ExplorerScenario() : model_(2.4e9, 2.4), lib_(make_reference_library()), tmpl_(model_, lib_) {
    tmpl_.add_node({"sink", {50, 5}, Role::kSink, NodeKind::kFixed, std::nullopt});
    for (int i = 0; i < 3; ++i) {
      tmpl_.add_node({"s" + std::to_string(i), {0.0, 2.0 + 3.0 * i}, Role::kSensor,
                      NodeKind::kFixed, std::nullopt});
    }
    for (int i = 0; i < 8; ++i) {
      tmpl_.add_node({"r" + std::to_string(i), {6.0 + 5.5 * i, 2.0 + (i % 3) * 3.0},
                      Role::kRelay, NodeKind::kCandidate, std::nullopt});
    }
    spec_.link_quality.min_snr_db = 35.0;
    spec_.objective = {1.0, 0.0, 0.0};
    for (int i = 0; i < 3; ++i) {
      RouteRequirement r;
      r.source = *tmpl_.find_node("s" + std::to_string(i));
      r.dest = 0;
      spec_.routes.push_back(r);
    }
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
  Specification spec_;
};

TEST_F(ExplorerScenario, MultiHopForcedAndVerified) {
  Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  const auto res = ex.explore({}, so);
  ASSERT_TRUE(res.has_solution()) << milp::to_string(res.status);
  // Direct 50 m links cannot meet 35 dB SNR: every route must be multi-hop.
  for (const auto& r : res.architecture.routes) EXPECT_GE(r.path.hops(), 2);
  const auto rep = verify_architecture(res.architecture, tmpl_, spec_);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(ExplorerScenario, StatsArePopulated) {
  Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  const auto res = ex.explore({}, so);
  ASSERT_TRUE(res.has_solution());
  EXPECT_GT(res.encode_stats.num_vars, 0);
  EXPECT_GT(res.encode_stats.num_constrs, 0);
  EXPECT_GT(res.encode_stats.candidate_paths, 0);
  EXPECT_GE(res.total_time_s, res.solve_stats.time_s - 1e-6);
}

TEST_F(ExplorerScenario, SmallerKStarNeverBeatsLarger) {
  Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  EncoderOptions e1;
  e1.k_star = 1;
  EncoderOptions e8;
  e8.k_star = 8;
  const auto r1 = ex.explore(e1, so);
  const auto r8 = ex.explore(e8, so);
  ASSERT_TRUE(r1.has_solution());
  ASSERT_TRUE(r8.has_solution());
  // Candidate pools are nested in spirit: more candidates, no worse optimum
  // (both solved to proven optimality on this small instance).
  if (r1.status == milp::SolveStatus::kOptimal && r8.status == milp::SolveStatus::kOptimal) {
    EXPECT_LE(r8.objective, r1.objective + 1e-6);
  }
}

TEST_F(ExplorerScenario, ExplicitMipStartPassesThrough) {
  // Solve once, feed the resulting variable assignment back as a MIP start
  // with a zero node budget: the incumbent must be at least that good.
  Explorer ex(tmpl_, spec_);
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  EncoderOptions eo;
  const auto first = ex.explore(eo, so);
  ASSERT_TRUE(first.has_solution());

  Encoder enc(tmpl_, spec_, eo);
  const auto ep = enc.encode();
  const auto direct = milp::solve(ep.model, so);
  ASSERT_TRUE(direct.has_solution());
  milp::SolveOptions limited = so;
  limited.mip_start = direct.x;
  limited.node_limit = 0;
  limited.root_dive = false;
  const auto seeded = milp::solve(ep.model, limited);
  ASSERT_TRUE(seeded.has_solution());
  EXPECT_LE(seeded.objective, direct.objective + 1e-6);
}

TEST_F(ExplorerScenario, NoRoutesMeansLocalizationOnlyStillRuns) {
  Specification loc_spec;
  loc_spec.objective = {1.0, 0.0, 0.0};
  LocalizationRequirement loc;
  loc.min_anchors = 1;
  loc.min_rss_dbm = -80.0;
  loc.eval_points = {{10, 5}, {30, 5}};
  loc_spec.localization = loc;

  // Reuse the template but give relays anchor duty via a dedicated template.
  NetworkTemplate anchors(model_, lib_);
  for (int i = 0; i < 6; ++i) {
    anchors.add_node({"a" + std::to_string(i), {5.0 + 8.0 * i, 5.0}, Role::kAnchor,
                      NodeKind::kCandidate, std::nullopt});
  }
  Explorer ex(anchors, loc_spec);
  const auto res = ex.explore();
  ASSERT_TRUE(res.has_solution()) << milp::to_string(res.status);
  EXPECT_GE(res.architecture.avg_reachable_anchors, 1.0);
  const auto rep = verify_architecture(res.architecture, anchors, loc_spec);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

TEST_F(ExplorerScenario, DsodObjectiveSelectsServingAnchors) {
  Specification loc_spec;
  loc_spec.objective = {0.0, 0.0, 1.0};
  LocalizationRequirement loc;
  loc.min_anchors = 2;
  loc.min_rss_dbm = -80.0;
  loc.eval_points = {{10, 5}, {20, 5}, {30, 5}};
  loc_spec.localization = loc;

  NetworkTemplate anchors(model_, lib_);
  for (int i = 0; i < 8; ++i) {
    anchors.add_node({"a" + std::to_string(i), {4.0 + 6.0 * i, 4.0 + (i % 2)}, Role::kAnchor,
                      NodeKind::kCandidate, std::nullopt});
  }
  Explorer ex(anchors, loc_spec);
  const auto res = ex.explore();
  ASSERT_TRUE(res.has_solution()) << milp::to_string(res.status);
  EXPECT_GT(res.architecture.dsod, 0.0);
  const auto rep = verify_architecture(res.architecture, anchors, loc_spec);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
}

/// A 40-sensor data-collection design over a 12x10 relay grid: it does not
/// certify within a second, and its warm-start probe alone runs for most of
/// a second at K*=10 and for seconds at K*=20.
std::unique_ptr<workloads::Scenario> forty_sensor_design() {
  workloads::DataCollectionConfig cfg;
  cfg.sensors = 40;
  cfg.relay_grid_x = 12;
  cfg.relay_grid_y = 10;
  cfg.seed = 2;
  return workloads::make_data_collection(cfg);
}

TEST(ExplorerTimeLimit, BoundsTheWholeCall) {
  // The limit must bound encode, probe and main solve together: the main
  // solve gets only what the other two left.
  const auto sc = forty_sensor_design();
  const Explorer ex(*sc->tmpl, sc->spec);
  EncoderOptions eo;
  eo.k_star = 10;
  milp::SolveOptions so;
  so.time_limit_s = 1.0;
  const auto res = ex.explore(eo, so);
  EXPECT_NE(res.status, milp::SolveStatus::kOptimal);
  EXPECT_LE(res.total_time_s, so.time_limit_s + 0.5);
}

TEST(ExplorerTimeLimit, BoundsTheWholeRung) {
  // The same design as one rung of an incremental K* ladder, with no
  // carried incumbent, so the fixed-routing probe runs: encode, probe and
  // main solve together must stay within the rung's time limit.
  const auto sc = forty_sensor_design();
  const Explorer ex(*sc->tmpl, sc->spec);
  EncoderOptions eo;
  IncrementalEncoder session(*sc->tmpl, sc->spec, eo);
  Explorer::RungCarry carry;
  milp::SolveOptions so;
  so.time_limit_s = 1.0;
  const auto res = ex.explore_rung(session, 10, carry, so);
  EXPECT_NE(res.status, milp::SolveStatus::kOptimal);
  EXPECT_LE(res.total_time_s, so.time_limit_s + 0.5);
}

/// Delegates to `inner`, but its first batch call stalls for `stall_s`. A
/// template builds its path-loss cache inside the first encode, so on a
/// fresh template the stall is spent in encode.
class StallingModel final : public channel::PropagationModel {
 public:
  StallingModel(const channel::PropagationModel& inner, double stall_s)
      : inner_(&inner), stall_s_(stall_s) {}

  [[nodiscard]] double path_loss_db(geom::Vec2 tx, geom::Vec2 rx) const override {
    return inner_->path_loss_db(tx, rx);
  }

  void path_loss_batch(geom::Vec2 tx, const double* xs, const double* ys, int n,
                       double* out) const override {
    if (!stalled_.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s_));
    }
    inner_->path_loss_batch(tx, xs, ys, n, out);
  }

 private:
  const channel::PropagationModel* inner_;
  double stall_s_;
  mutable std::atomic<bool> stalled_{false};
};

/// The 40-sensor design re-homed on a StallingModel whose stall outlasts
/// the 1 s limit the tests below give, so encode alone uses up the limit.
/// Neither the probe nor the main solve may then do any work; a probe
/// handed the uncapped options instead runs for the whole limit (at K*=20
/// it needs longer than that to finish).
class StalledEncode : public ::testing::Test {
 protected:
  static constexpr double kLimitS = 1.0;
  static constexpr double kStallS = 1.2;

  StalledEncode()
      : sc_(forty_sensor_design()), model_(*sc_->model, kStallS), tmpl_(model_, sc_->library) {
    tmpl_.set_link_cutoff_rss_dbm(sc_->tmpl->link_cutoff_rss_dbm());
    for (const TemplateNode& n : sc_->tmpl->nodes()) tmpl_.add_node(n);
  }

  /// Wall time the call spent beyond the stall and the encode proper.
  [[nodiscard]] static double after_encode_s(const ExplorationResult& res) {
    return res.total_time_s - kStallS - res.encode_stats.encode_time_s;
  }

  std::unique_ptr<workloads::Scenario> sc_;
  StallingModel model_;
  NetworkTemplate tmpl_;
};

TEST_F(StalledEncode, LeavesTheProbeNoTime) {
  const Explorer ex(tmpl_, sc_->spec);
  EncoderOptions eo;
  eo.k_star = 20;
  milp::SolveOptions so;
  so.time_limit_s = kLimitS;
  const auto res = ex.explore(eo, so);
  EXPECT_LT(after_encode_s(res), 0.5 * kLimitS);
}

TEST_F(StalledEncode, LeavesTheRungProbeNoTime) {
  const Explorer ex(tmpl_, sc_->spec);
  EncoderOptions eo;
  IncrementalEncoder session(tmpl_, sc_->spec, eo);
  Explorer::RungCarry carry;
  milp::SolveOptions so;
  so.time_limit_s = kLimitS;
  const auto res = ex.explore_rung(session, 20, carry, so);
  EXPECT_LT(after_encode_s(res), 0.5 * kLimitS);
}

}  // namespace
}  // namespace wnet::archex

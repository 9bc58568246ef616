#include "core/workloads/scenarios.h"

#include <gtest/gtest.h>

#include "core/explorer.h"
#include "core/solution.h"

namespace wnet::archex::workloads {
namespace {

TEST(Workloads, DataCollectionDefaultMatchesPaperShape) {
  const auto sc = make_data_collection();
  // 35 sensors + 1 sink + 100 relay candidates = 136 (paper Sec. 4.1).
  EXPECT_EQ(sc->tmpl->num_nodes(), 136);
  EXPECT_EQ(sc->spec.routes.size(), 35u);
  for (const auto& r : sc->spec.routes) EXPECT_EQ(r.replicas, 2);
  EXPECT_DOUBLE_EQ(*sc->spec.link_quality.min_snr_db, 20.0);
  ASSERT_TRUE(sc->spec.lifetime.has_value());
  EXPECT_DOUBLE_EQ(sc->spec.lifetime->min_years, 5.0);
  EXPECT_EQ(sc->spec.radio.tdma.slots_per_superframe, 16);
  EXPECT_EQ(sc->spec.radio.tdma.packet_bytes, 50);
}

TEST(Workloads, DataCollectionIsDeterministicPerSeed) {
  DataCollectionConfig cfg;
  cfg.sensors = 5;
  cfg.relay_grid_x = 4;
  cfg.relay_grid_y = 3;
  const auto a = make_data_collection(cfg);
  const auto b = make_data_collection(cfg);
  ASSERT_EQ(a->tmpl->num_nodes(), b->tmpl->num_nodes());
  for (int i = 0; i < a->tmpl->num_nodes(); ++i) {
    EXPECT_EQ(a->tmpl->node(i).position, b->tmpl->node(i).position);
  }
  cfg.seed = 99;
  const auto c = make_data_collection(cfg);
  bool any_differs = false;
  for (int i = 0; i < a->tmpl->num_nodes(); ++i) {
    if (!(a->tmpl->node(i).position == c->tmpl->node(i).position)) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Workloads, LocalizationDefaultMatchesPaperShape) {
  const auto sc = make_localization();
  // 150 candidate anchors, 135 evaluation points (paper Sec. 4.2).
  EXPECT_EQ(sc->tmpl->num_nodes(), 150);
  ASSERT_TRUE(sc->spec.localization.has_value());
  EXPECT_EQ(sc->spec.localization->eval_points.size(), 135u);
  EXPECT_EQ(sc->spec.localization->min_anchors, 3);
  EXPECT_DOUBLE_EQ(sc->spec.localization->min_rss_dbm, -80.0);
  EXPECT_TRUE(sc->spec.routes.empty());  // star topology: no multihop routes
}

TEST(Workloads, ScalableRespectsNodeBudget) {
  for (const auto& [nodes, devices] : {std::pair{50, 20}, std::pair{100, 50}}) {
    ScalableConfig cfg;
    cfg.total_nodes = nodes;
    cfg.end_devices = devices;
    const auto sc = make_scalable(cfg);
    EXPECT_EQ(sc->tmpl->num_nodes(), nodes) << nodes;
    EXPECT_EQ(static_cast<int>(sc->spec.routes.size()), devices);
  }
}

TEST(Workloads, ScalableRejectsImpossibleSplit) {
  ScalableConfig cfg;
  cfg.total_nodes = 10;
  cfg.end_devices = 10;
  EXPECT_THROW(make_scalable(cfg), std::invalid_argument);
}

TEST(Workloads, SmallScalableInstanceSolvesEndToEnd) {
  ScalableConfig cfg;
  cfg.total_nodes = 18;
  cfg.end_devices = 4;
  const auto sc = make_scalable(cfg);
  Explorer ex(*sc->tmpl, sc->spec);
  EncoderOptions eo;
  eo.k_star = 5;
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  const auto res = ex.explore(eo, so);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  const auto rep = verify_architecture(res.architecture, *sc->tmpl, sc->spec);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
  EXPECT_GT(res.architecture.total_cost_usd, 0.0);
  EXPECT_GE(res.architecture.min_lifetime_years, 5.0 - 1e-6);
}

TEST(Workloads, SmallLocalizationInstanceSolvesEndToEnd) {
  LocalizationConfig cfg;
  cfg.anchor_grid_x = 5;
  cfg.anchor_grid_y = 3;
  cfg.eval_grid_x = 4;
  cfg.eval_grid_y = 3;
  cfg.width_m = 40;
  cfg.height_m = 24;
  const auto sc = make_localization(cfg);
  Explorer ex(*sc->tmpl, sc->spec);
  EncoderOptions eo;
  eo.loc_candidates = 8;
  milp::SolveOptions so;
  so.time_limit_s = 60.0;
  const auto res = ex.explore(eo, so);
  ASSERT_TRUE(res.has_solution()) << to_string(res.status);
  const auto rep = verify_architecture(res.architecture, *sc->tmpl, sc->spec);
  EXPECT_TRUE(rep.ok) << (rep.violations.empty() ? "" : rep.violations[0]);
  EXPECT_GE(res.architecture.avg_reachable_anchors, 3.0);
}

}  // namespace
}  // namespace wnet::archex::workloads

#include <gtest/gtest.h>

#include "channel/propagation.h"
#include "core/library.h"
#include "core/network_template.h"

namespace wnet::archex {
namespace {

TEST(Library, ReferenceLibraryShape) {
  const ComponentLibrary lib = make_reference_library();
  EXPECT_GE(lib.size(), 8);
  EXPECT_FALSE(lib.with_role(Role::kSensor).empty());
  EXPECT_FALSE(lib.with_role(Role::kRelay).empty());
  EXPECT_FALSE(lib.with_role(Role::kSink).empty());
  EXPECT_FALSE(lib.with_role(Role::kAnchor).empty());
  ASSERT_TRUE(lib.find("relay-basic").has_value());
  EXPECT_FALSE(lib.find("quantum-relay").has_value());
  // Sensors are free, relays are not.
  for (int i : lib.with_role(Role::kSensor)) EXPECT_DOUBLE_EQ(lib.at(i).cost_usd, 0.0);
  for (int i : lib.with_role(Role::kRelay)) EXPECT_GT(lib.at(i).cost_usd, 0.0);
  // Best relay EIRP includes PA + antenna.
  EXPECT_DOUBLE_EQ(lib.best_eirp_dbm(Role::kRelay), 7.5);
}

TEST(Library, RejectsMalformedComponents) {
  ComponentLibrary lib;
  EXPECT_THROW(lib.add({"", {Role::kRelay}, 1, 0, 0, {}}), std::invalid_argument);
  EXPECT_THROW(lib.add({"x", {}, 1, 0, 0, {}}), std::invalid_argument);
}

class TemplateTest : public ::testing::Test {
 protected:
  TemplateTest()
      : model_(2.4e9, 2.0), lib_(make_reference_library()), tmpl_(model_, lib_) {}

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
};

TEST_F(TemplateTest, AddAndFindNodes) {
  tmpl_.add_node({"a", {0, 0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
  tmpl_.add_node({"b", {10, 0}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
  EXPECT_EQ(tmpl_.num_nodes(), 2);
  EXPECT_EQ(*tmpl_.find_node("a"), 0);
  EXPECT_FALSE(tmpl_.find_node("zzz").has_value());
  EXPECT_THROW(tmpl_.add_node({"a", {1, 1}, Role::kRelay, NodeKind::kCandidate, std::nullopt}),
               std::invalid_argument);
  EXPECT_THROW(tmpl_.add_node({"", {1, 1}, Role::kRelay, NodeKind::kCandidate, std::nullopt}),
               std::invalid_argument);
  EXPECT_THROW(tmpl_.add_node({"c", {1, 1}, Role::kRelay, NodeKind::kCandidate, 999}),
               std::out_of_range);
}

TEST_F(TemplateTest, PathLossSymmetricAndCached) {
  tmpl_.add_node({"a", {0, 0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
  tmpl_.add_node({"b", {20, 0}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
  EXPECT_DOUBLE_EQ(tmpl_.path_loss_db(0, 1), tmpl_.path_loss_db(1, 0));
  EXPECT_NEAR(tmpl_.path_loss_db(0, 1), model_.path_loss_db({0, 0}, {20, 0}), 1e-12);
  EXPECT_THROW((void)tmpl_.path_loss_db(0, 7), std::out_of_range);
}

TEST_F(TemplateTest, GraphRespectsRolesAndCutoff) {
  tmpl_.add_node({"s", {0, 0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
  tmpl_.add_node({"r", {10, 0}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
  tmpl_.add_node({"k", {20, 0}, Role::kSink, NodeKind::kFixed, std::nullopt});
  const auto g = tmpl_.build_graph();
  // No edges into sensors, none out of sinks.
  for (const auto& e : g.edges()) {
    EXPECT_NE(tmpl_.node(e.to).role, Role::kSensor);
    EXPECT_NE(tmpl_.node(e.from).role, Role::kSink);
  }
  EXPECT_NE(g.find_edge(0, 1), -1);  // sensor -> relay
  EXPECT_NE(g.find_edge(1, 2), -1);  // relay -> sink
  EXPECT_EQ(g.find_edge(2, 1), -1);  // sink never transmits
  EXPECT_EQ(g.find_edge(1, 0), -1);  // nothing back to a sensor

  // A draconian cutoff removes every edge.
  tmpl_.set_link_cutoff_rss_dbm(100.0);
  EXPECT_EQ(tmpl_.build_graph().num_edges(), 0);
}

TEST_F(TemplateTest, BestRssUsesFixedComponentWhenPresent) {
  const int weak = *lib_.find("relay-basic");   // 0 dBm, 0 dBi
  const int strong = *lib_.find("relay-pa-ant");  // 4.5 dBm, 3 dBi
  tmpl_.add_node({"a", {0, 0}, Role::kRelay, NodeKind::kCandidate, weak});
  tmpl_.add_node({"b", {10, 0}, Role::kRelay, NodeKind::kCandidate, std::nullopt});
  tmpl_.add_node({"c", {0, 10}, Role::kRelay, NodeKind::kCandidate, strong});
  // From fixed weak node: EIRP 0; from free node: best relay EIRP 7.5.
  const double pl = tmpl_.path_loss_db(0, 1);
  EXPECT_NEAR(tmpl_.best_rss_dbm(0, 1), 0.0 + 3.0 - pl, 1e-9);  // rx best gain 3
  EXPECT_NEAR(tmpl_.best_rss_dbm(1, 0), 7.5 + 0.0 - pl, 1e-9);  // rx fixed gain 0
  EXPECT_NEAR(tmpl_.best_rss_dbm(1, 2), 7.5 + 3.0 - tmpl_.path_loss_db(1, 2), 1e-9);
}

TEST_F(TemplateTest, NodesWithRole) {
  tmpl_.add_node({"s", {0, 0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
  tmpl_.add_node({"a1", {5, 0}, Role::kAnchor, NodeKind::kCandidate, std::nullopt});
  tmpl_.add_node({"a2", {9, 0}, Role::kAnchor, NodeKind::kCandidate, std::nullopt});
  EXPECT_EQ(tmpl_.nodes_with_role(Role::kAnchor).size(), 2u);
  EXPECT_EQ(tmpl_.nodes_with_role(Role::kSink).size(), 0u);
}

}  // namespace
}  // namespace wnet::archex

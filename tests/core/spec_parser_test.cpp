#include "core/spec/parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "channel/propagation.h"

namespace wnet::archex {
namespace {

class SpecParserTest : public ::testing::Test {
 protected:
  SpecParserTest() : model_(2.4e9, 2.0), lib_(make_reference_library()), tmpl_(model_, lib_) {
    tmpl_.add_node({"s1", {0, 0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"s2", {5, 0}, Role::kSensor, NodeKind::kFixed, std::nullopt});
    tmpl_.add_node({"sink", {20, 0}, Role::kSink, NodeKind::kFixed, std::nullopt});
  }

  channel::LogDistanceModel model_;
  ComponentLibrary lib_;
  NetworkTemplate tmpl_;
};

TEST_F(SpecParserTest, ParsesThePaperStylePatterns) {
  const auto spec = spec::parse(R"(
# data collection requirements
p1 = has_path(s1, sink)
p2 = has_path(s1, sink)
q1 = has_path(s2, sink)
disjoint_links(p1, p2)
max_hops(q1, 4)
min_signal_to_noise(20)
min_network_lifetime(5, 3000)
objective cost=1 energy=0.5
noise_floor(-100)
report_period(30)
)",
                               tmpl_);
  ASSERT_EQ(spec.routes.size(), 2u);
  // Ungrouped route first, then the disjoint group.
  const auto& single = spec.routes[0];
  EXPECT_EQ(single.replicas, 1);
  EXPECT_EQ(single.max_hops, 4);
  EXPECT_EQ(single.source, *tmpl_.find_node("s2"));
  const auto& dual = spec.routes[1];
  EXPECT_EQ(dual.replicas, 2);
  EXPECT_EQ(dual.source, *tmpl_.find_node("s1"));
  EXPECT_EQ(dual.dest, *tmpl_.find_node("sink"));

  EXPECT_DOUBLE_EQ(*spec.link_quality.min_snr_db, 20.0);
  ASSERT_TRUE(spec.lifetime.has_value());
  EXPECT_DOUBLE_EQ(spec.lifetime->min_years, 5.0);
  EXPECT_DOUBLE_EQ(spec.lifetime->battery_mah, 3000.0);
  EXPECT_DOUBLE_EQ(spec.objective.weight_cost, 1.0);
  EXPECT_DOUBLE_EQ(spec.objective.weight_energy, 0.5);
  EXPECT_DOUBLE_EQ(spec.objective.weight_dsod, 0.0);
  EXPECT_DOUBLE_EQ(spec.radio.noise_floor_dbm, -100.0);
  EXPECT_DOUBLE_EQ(spec.radio.tdma.report_period_s, 30.0);
  // SNR 20 over -100 noise floor -> RSS floor -80.
  EXPECT_DOUBLE_EQ(*spec.min_rss_dbm(), -80.0);
}

TEST_F(SpecParserTest, ParsesLocalizationPatterns) {
  const auto spec = spec::parse(R"(
eval_point(1.5, 2.5)
eval_point(3, 4)
min_reachable_devices(3, -80)
objective cost=1 dsod=0.2
)",
                                tmpl_);
  ASSERT_TRUE(spec.localization.has_value());
  EXPECT_EQ(spec.localization->eval_points.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.localization->eval_points[1].y, 4.0);
  EXPECT_EQ(spec.localization->min_anchors, 3);
  EXPECT_DOUBLE_EQ(spec.localization->min_rss_dbm, -80.0);
  EXPECT_DOUBLE_EQ(spec.objective.weight_dsod, 0.2);
}

TEST_F(SpecParserTest, ErrorsCarryLineNumbers) {
  try {
    (void)spec::parse("p1 = has_path(s1, sink)\nbogus_pattern(1)\n", tmpl_);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST_F(SpecParserTest, RejectsMalformedInput) {
  EXPECT_THROW(spec::parse("p1 = has_path(s1)\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse("p1 = has_path(nope, sink)\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse("disjoint_links(p1, p2)\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse("min_signal_to_noise(a)\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse("objective cost\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse("objective banana=1\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse("p1 = has_path(s1, sink)\np1 = has_path(s1, sink)\n", tmpl_),
               std::runtime_error);
  EXPECT_THROW(spec::parse("max_hops(p9, 3)\n", tmpl_), std::runtime_error);
}

TEST_F(SpecParserTest, DisjointGroupsMustShareEndpoints) {
  EXPECT_THROW(spec::parse(R"(
p1 = has_path(s1, sink)
p2 = has_path(s2, sink)
disjoint_links(p1, p2)
)",
                           tmpl_),
               std::runtime_error);
}

TEST_F(SpecParserTest, RouteCannotJoinTwoGroups) {
  EXPECT_THROW(spec::parse(R"(
p1 = has_path(s1, sink)
p2 = has_path(s1, sink)
p3 = has_path(s1, sink)
disjoint_links(p1, p2)
disjoint_links(p2, p3)
)",
                           tmpl_),
               std::runtime_error);
}

TEST_F(SpecParserTest, MaxHopsOnGroupTakesTightest) {
  const auto spec = spec::parse(R"(
p1 = has_path(s1, sink)
p2 = has_path(s1, sink)
max_hops(p1, 5)
max_hops(p2, 3)
disjoint_links(p1, p2)
)",
                                tmpl_);
  ASSERT_EQ(spec.routes.size(), 1u);
  EXPECT_EQ(*spec.routes[0].max_hops, 3);
}

TEST_F(SpecParserTest, EmptySpecParses) {
  const auto spec = spec::parse("\n# nothing\n", tmpl_);
  EXPECT_TRUE(spec.routes.empty());
  EXPECT_FALSE(spec.lifetime.has_value());
}

// Count arguments must be positive integers — the old parser truncated
// `max_hops(p, 3.9)` to 3 and accepted zero/negative bounds, which the
// encoder then turned into silently-wrong (or vacuous) constraints.
TEST_F(SpecParserTest, RejectsFractionalOrNonPositiveCounts) {
  const std::string route = "p1 = has_path(s1, sink)\n";
  for (const char* bad : {"3.9", "0", "-2", "0.5", "1e-3"}) {
    EXPECT_THROW(spec::parse(route + "max_hops(p1, " + bad + ")\n", tmpl_), std::runtime_error)
        << "max_hops bound " << bad;
  }
  for (const char* bad : {"2.5", "0", "-1"}) {
    EXPECT_THROW(spec::parse(std::string("eval_point(1, 1)\nmin_reachable_devices(") + bad +
                                 ", -80)\n",
                             tmpl_),
                 std::runtime_error)
        << "min_reachable_devices count " << bad;
  }
  // The error is line-numbered and names the rule.
  try {
    (void)spec::parse(route + "max_hops(p1, 3.9)\n", tmpl_);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("positive integer"), std::string::npos) << msg;
  }
  // Integral-valued spellings are fine; non-count numbers stay unrestricted.
  const auto spec =
      spec::parse(route + "max_hops(p1, 3.0)\nmin_signal_to_noise(20.5)\n", tmpl_);
  EXPECT_EQ(*spec.routes[0].max_hops, 3);
}

// A call must end at its closing paren: `max_hops(p1, 3) oops` used to
// parse clean with the garbage silently ignored. Comments are stripped
// first, so trailing comments still work.
TEST_F(SpecParserTest, RejectsTrailingGarbageAfterCall) {
  const std::string route = "p1 = has_path(s1, sink)\n";
  EXPECT_THROW(spec::parse(route + "max_hops(p1, 3) oops\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse(route + "max_hops(p1, 3))\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse("min_rss(-80) min_rss(-70)\n", tmpl_), std::runtime_error);
  const auto spec = spec::parse(route + "max_hops(p1, 3)   # trailing comment\n", tmpl_);
  EXPECT_EQ(*spec.routes[0].max_hops, 3);
}

// The `objective` keyword must end on a word boundary: a raw prefix match
// used to treat `objectivexyz cost=1` as an objective line.
TEST_F(SpecParserTest, ObjectiveKeywordRequiresWordBoundary) {
  EXPECT_THROW(spec::parse("objectivexyz cost=1\n", tmpl_), std::runtime_error);
  EXPECT_THROW(spec::parse("objective\n", tmpl_), std::runtime_error);  // no terms
  const auto spaced = spec::parse("objective cost=2\n", tmpl_);
  EXPECT_DOUBLE_EQ(spaced.objective.weight_cost, 2.0);
  const auto tabbed = spec::parse("objective\tcost=3\n", tmpl_);
  EXPECT_DOUBLE_EQ(tabbed.objective.weight_cost, 3.0);
}

namespace roundtrip {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_same_spec(const Specification& a, const Specification& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].source, b.routes[i].source);
    EXPECT_EQ(a.routes[i].dest, b.routes[i].dest);
    EXPECT_EQ(a.routes[i].replicas, b.routes[i].replicas);
    EXPECT_EQ(a.routes[i].max_hops, b.routes[i].max_hops);
  }
  EXPECT_EQ(a.link_quality.min_snr_db, b.link_quality.min_snr_db);
  EXPECT_EQ(a.link_quality.min_rss_dbm, b.link_quality.min_rss_dbm);
  EXPECT_EQ(a.lifetime.has_value(), b.lifetime.has_value());
  EXPECT_EQ(a.objective.weight_cost, b.objective.weight_cost);
  EXPECT_EQ(a.objective.weight_energy, b.objective.weight_energy);
  EXPECT_EQ(a.objective.weight_dsod, b.objective.weight_dsod);
  EXPECT_EQ(a.radio.noise_floor_dbm, b.radio.noise_floor_dbm);
  EXPECT_EQ(a.radio.tdma.report_period_s, b.radio.tdma.report_period_s);
}

}  // namespace roundtrip

// Every shipped example spec must parse against the example binary's
// template (replicated here: see examples/spec_driven.cpp), and parsing
// must be a pure function of the text — two parses agree field by field.
TEST(SpecExamples, ShippedExampleSpecsRoundTrip) {
  const std::filesystem::path data_dir =
      std::filesystem::path(WNET_SOURCE_DIR) / "examples" / "data";
  ASSERT_TRUE(std::filesystem::exists(data_dir)) << data_dir;

  const channel::LogDistanceModel model(2.4e9, 2.8);
  const ComponentLibrary lib = make_reference_library();
  NetworkTemplate tmpl(model, lib);
  tmpl.add_node({"sink", {20, 12}, Role::kSink, NodeKind::kFixed, std::nullopt});
  const geom::Vec2 sensor_at[] = {{3, 3}, {37, 3}, {3, 21}, {37, 21}};
  for (int i = 0; i < 4; ++i) {
    tmpl.add_node({"s" + std::to_string(i), sensor_at[i], Role::kSensor, NodeKind::kFixed,
                   std::nullopt});
  }
  int idx = 0;
  for (double x = 5; x < 40.0; x += 10) {
    for (double y : {5.0, 12.0, 19.0}) {
      tmpl.add_node({"r" + std::to_string(idx++), {x, y}, Role::kRelay, NodeKind::kCandidate,
                     std::nullopt});
    }
  }

  int specs_seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(data_dir)) {
    if (entry.path().extension() != ".spec") continue;
    ++specs_seen;
    const std::string text = roundtrip::slurp(entry.path());
    const Specification first = spec::parse(text, tmpl);
    const Specification second = spec::parse(text, tmpl);
    roundtrip::expect_same_spec(first, second);
    EXPECT_FALSE(first.routes.empty()) << entry.path();
  }
  EXPECT_GE(specs_seen, 1) << "no .spec files under " << data_dir;
}

}  // namespace
}  // namespace wnet::archex

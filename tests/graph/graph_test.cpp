#include <gtest/gtest.h>

#include <random>

#include "graph/connectivity.h"
#include "graph/dijkstra.h"
#include "graph/digraph.h"
#include "graph/yen.h"

namespace wnet::graph {
namespace {

/// Small diamond: 0 -> {1, 2} -> 3, plus a slow direct edge 0 -> 3.
Digraph diamond() {
  Digraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.5);
  g.add_edge(2, 3, 1.5);
  g.add_edge(0, 3, 5.0);
  return g;
}

TEST(Digraph, AddAndFindEdges) {
  Digraph g(3);
  const EdgeId e = g.add_edge(0, 1, 2.5);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.find_edge(0, 1), e);
  EXPECT_EQ(g.find_edge(1, 0), -1);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
  g.set_weight(e, 7.0);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 7.0);
}

TEST(Digraph, RejectsBadNodeIds) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 0, 1.0), std::out_of_range);
}

TEST(Dijkstra, FindsShortestPath) {
  const Digraph g = diamond();
  const auto p = shortest_path(g, 0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->cost, 2.0);
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_TRUE(is_valid_simple_path(g, *p));
}

TEST(Dijkstra, UnreachableReturnsNullopt) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_FALSE(shortest_path(g, 0, 2).has_value());
}

TEST(Dijkstra, InfiniteWeightMeansRemoved) {
  Digraph g = diamond();
  g.set_weight(0, kInfWeight);  // remove 0->1
  const auto p = shortest_path(g, 0, 3);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));
}

TEST(Dijkstra, RespectsBannedNodesAndEdges) {
  const Digraph g = diamond();
  std::vector<char> banned_nodes(4, 0);
  banned_nodes[1] = 1;
  DijkstraOptions opts;
  opts.banned_nodes = &banned_nodes;
  auto p = shortest_path(g, 0, 3, opts);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 2, 3}));

  std::vector<char> banned_edges(static_cast<size_t>(g.num_edges()), 0);
  banned_edges[2] = 1;  // 0->2
  banned_edges[0] = 1;  // 0->1
  DijkstraOptions opts2;
  opts2.banned_edges = &banned_edges;
  p = shortest_path(g, 0, 3, opts2);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->nodes, (std::vector<NodeId>{0, 3}));
}

TEST(Dijkstra, NegativeWeightThrows) {
  Digraph g(2);
  g.add_edge(0, 1, -1.0);
  EXPECT_THROW(shortest_path(g, 0, 1), std::invalid_argument);
}

TEST(Dijkstra, SingleSourceDistances) {
  const Digraph g = diamond();
  const auto d = shortest_distances(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 1.5);
  EXPECT_DOUBLE_EQ(d[3], 2.0);
}

TEST(Yen, EnumeratesInCostOrder) {
  const Digraph g = diamond();
  const auto paths = yen_k_shortest(g, 0, 3, 5);
  ASSERT_EQ(paths.size(), 3u);  // only 3 loopless paths exist
  EXPECT_DOUBLE_EQ(paths[0].cost, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].cost, 3.0);
  EXPECT_DOUBLE_EQ(paths[2].cost, 5.0);
  for (const auto& p : paths) EXPECT_TRUE(is_valid_simple_path(g, p));
}

TEST(Yen, KOneIsDijkstra) {
  const Digraph g = diamond();
  const auto paths = yen_k_shortest(g, 0, 3, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].nodes, shortest_path(g, 0, 3)->nodes);
}

TEST(Yen, NoPathsWhenDisconnected) {
  Digraph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_TRUE(yen_k_shortest(g, 0, 2, 4).empty());
  EXPECT_TRUE(yen_k_shortest(g, 0, 2, 0).empty());
}

TEST(Yen, PathsAreDistinctAndLoopless) {
  // Grid-ish graph with many routes.
  const int n = 4;
  Digraph g(n * n);
  auto id = [&](int x, int y) { return y * n + x; };
  for (int y = 0; y < n; ++y) {
    for (int x = 0; x < n; ++x) {
      if (x + 1 < n) g.add_edge(id(x, y), id(x + 1, y), 1.0 + 0.01 * y);
      if (y + 1 < n) g.add_edge(id(x, y), id(x, y + 1), 1.0 + 0.01 * x);
    }
  }
  const auto paths = yen_k_shortest(g, id(0, 0), id(n - 1, n - 1), 12);
  ASSERT_GE(paths.size(), 10u);
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_TRUE(is_valid_simple_path(g, paths[i])) << i;
    for (size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i].nodes, paths[j].nodes) << i << "," << j;
    }
    if (i > 0) {
      EXPECT_GE(paths[i].cost, paths[i - 1].cost - 1e-12);
    }
  }
}

TEST(Yen, RandomGraphsProperty) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 12;
    Digraph g(n);
    std::uniform_real_distribution<double> w(0.5, 3.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j && rng() % 3 == 0) g.add_edge(i, j, w(rng));
      }
    }
    const auto paths = yen_k_shortest(g, 0, n - 1, 8);
    for (size_t i = 0; i < paths.size(); ++i) {
      EXPECT_TRUE(is_valid_simple_path(g, paths[i]));
      EXPECT_EQ(paths[i].nodes.front(), 0);
      EXPECT_EQ(paths[i].nodes.back(), n - 1);
      if (i > 0) {
        EXPECT_GE(paths[i].cost, paths[i - 1].cost - 1e-12);
      }
    }
  }
}

TEST(Connectivity, ReachabilityAndValidation) {
  Digraph g(5);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(3, 4, 1);
  EXPECT_TRUE(is_reachable(g, 0, 2));
  EXPECT_FALSE(is_reachable(g, 0, 3));
  EXPECT_FALSE(is_reachable(g, 2, 0));

  Path good;
  good.nodes = {0, 1, 2};
  good.edges = {0, 1};
  EXPECT_TRUE(is_valid_simple_path(g, good));

  Path loop;
  loop.nodes = {0, 1, 0};
  loop.edges = {0, 0};
  EXPECT_FALSE(is_valid_simple_path(g, loop));

  Path mismatched;
  mismatched.nodes = {0, 1, 2};
  mismatched.edges = {0, 2};  // edge 2 is 3->4
  EXPECT_FALSE(is_valid_simple_path(g, mismatched));
}

TEST(Connectivity, IncidenceMatrixSigns) {
  Digraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  const auto c = incidence_matrix(g);
  EXPECT_EQ(c[0][0], 1);
  EXPECT_EQ(c[1][0], -1);
  EXPECT_EQ(c[1][1], 1);
  EXPECT_EQ(c[2][1], -1);
  EXPECT_EQ(c[0][1], 0);
}

TEST(PathUtils, SharedEdgesAndDisjointness) {
  Digraph g(4);
  const EdgeId a = g.add_edge(0, 1, 1);
  const EdgeId b = g.add_edge(1, 2, 1);
  const EdgeId c = g.add_edge(0, 2, 1);
  Path p1{{0, 1, 2}, {a, b}, 2.0};
  Path p2{{0, 2}, {c}, 1.0};
  Path p3{{0, 1, 2}, {a, b}, 2.0};
  EXPECT_TRUE(edge_disjoint(p1, p2));
  EXPECT_EQ(shared_edges(p1, p3), 2);
}

}  // namespace
}  // namespace wnet::graph

// Graph + small-world metrics against hand-computed values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "sim/rng.hpp"

namespace {

using namespace p2p::graph;

Graph ring_lattice(std::size_t n, std::size_t k_each_side) {
  Graph g(n);
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t d = 1; d <= k_each_side; ++d) {
      g.add_edge(v, static_cast<Vertex>((v + d) % n));
    }
  }
  return g;
}

TEST(Graph, AddEdgeIgnoresDuplicatesSelfLoopsAndOutOfRange) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 0);
  g.add_edge(0, 9);
  EXPECT_EQ(g.edge_count(), 1U);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Graph, BfsDistancesOnPath) {
  Graph g(5);
  for (Vertex v = 0; v + 1 < 5; ++v) g.add_edge(v, v + 1);
  const auto dist = g.bfs_distances(0);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(dist[v], static_cast<int>(v));
}

TEST(Graph, BfsMarksUnreachable) {
  Graph g(4);
  g.add_edge(0, 1);
  // 2 and 3 disconnected.
  const auto dist = g.bfs_distances(0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Graph, PairDistance) {
  Graph g(6);
  for (Vertex v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1);
  g.add_edge(0, 5);  // shortcut
  EXPECT_EQ(g.distance(0, 3), 3);
  EXPECT_EQ(g.distance(0, 5), 1);
  EXPECT_EQ(g.distance(1, 5), 2);
  EXPECT_EQ(g.distance(2, 2), 0);
}

TEST(Graph, DistanceUnreachableAndInvalid) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(g.distance(0, 2), kUnreachable);
  EXPECT_EQ(g.distance(0, 99), kUnreachable);
}

TEST(Graph, Components) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  std::size_t count = 0;
  const auto labels = g.components(&count);
  EXPECT_EQ(count, 3U);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_NE(labels[3], labels[5]);
}

TEST(Metrics, TriangleHasClusteringOne) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(local_clustering(g, 0), 1.0);
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 1.0);
}

TEST(Metrics, StarHasClusteringZero) {
  Graph g(5);
  for (Vertex v = 1; v < 5; ++v) g.add_edge(0, v);
  EXPECT_DOUBLE_EQ(local_clustering(g, 0), 0.0);
  // Leaves have degree 1 -> excluded; the center contributes 0.
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 0.0);
}

TEST(Metrics, PaperDefinitionRealOverPossible) {
  // Node 0 with neighbors 1,2,3; only (1,2) connected: 1 of 3 pairs.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  EXPECT_NEAR(local_clustering(g, 0), 1.0 / 3.0, 1e-12);
}

TEST(Metrics, PathLengthOfTriangleAndPath) {
  Graph triangle(3);
  triangle.add_edge(0, 1);
  triangle.add_edge(1, 2);
  triangle.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(characteristic_path_length(triangle), 1.0);

  Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  // Distances: (0,1)=1 (0,2)=2 (1,2)=1 -> mean 4/3.
  EXPECT_NEAR(characteristic_path_length(path), 4.0 / 3.0, 1e-12);
}

/// The all-pairs formula characteristic_path_length used to run: a fresh
/// bfs_distances() per source and a double sum over every other vertex.
/// Kept as the oracle the component-local rewrite must match exactly.
double path_length_oracle(const Graph& g) {
  double sum = 0.0;
  std::size_t pairs = 0;
  for (Vertex v = 0; v < g.order(); ++v) {
    const std::vector<int> dist = g.bfs_distances(v);
    for (Vertex w = 0; w < g.order(); ++w) {
      if (w != v && dist[w] != kUnreachable) {
        sum += dist[w];
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

TEST(Metrics, PathLengthMatchesAllPairsOracleExactly) {
  EXPECT_EQ(characteristic_path_length(Graph(0)), path_length_oracle(Graph(0)));
  EXPECT_EQ(characteristic_path_length(Graph(1)), 0.0);
  EXPECT_EQ(characteristic_path_length(Graph(5)), 0.0);  // all isolated
  // Seeded random graphs from very sparse (many components, isolated
  // vertices) to well connected; EXPECT_EQ on doubles, not NEAR.
  p2p::sim::RngStream rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 300));
    const double mean_degree = rng.uniform(0.2, 6.0);
    const auto edges = static_cast<std::size_t>(
        mean_degree * static_cast<double>(n) / 2.0);
    const auto last = static_cast<std::int64_t>(n) - 1;
    Graph g(n);
    for (std::size_t e = 0; e < edges; ++e) {
      g.add_edge(static_cast<Vertex>(rng.uniform_int(0, last)),
                 static_cast<Vertex>(rng.uniform_int(0, last)));
    }
    std::size_t components = 0;
    g.components(&components);
    EXPECT_EQ(characteristic_path_length(g), path_length_oracle(g))
        << "trial " << trial << ": n=" << n << " edges=" << g.edge_count()
        << " components=" << components;
  }
  const Graph ring = ring_lattice(120, 2);
  EXPECT_EQ(characteristic_path_length(ring), path_length_oracle(ring));
}

TEST(Metrics, RingLatticeValues) {
  // Ring lattice n=20, k=4 (2 each side): C = 0.5 (Watts-Strogatz).
  const Graph g = ring_lattice(20, 2);
  EXPECT_EQ(g.edge_count(), 40U);
  EXPECT_NEAR(clustering_coefficient(g), 0.5, 1e-9);
}

TEST(Metrics, RewiringShortensPathLength) {
  const Graph lattice = ring_lattice(40, 2);
  Graph rewired = ring_lattice(40, 2);
  // Add a few long chords (the Watts-Strogatz "bridges").
  rewired.add_edge(0, 20);
  rewired.add_edge(10, 30);
  rewired.add_edge(5, 25);
  const double l0 = characteristic_path_length(lattice);
  const double l1 = characteristic_path_length(rewired);
  EXPECT_LT(l1, l0);
  // Clustering barely moves.
  EXPECT_NEAR(clustering_coefficient(rewired), clustering_coefficient(lattice),
              0.05);
}

TEST(Metrics, AnalyzeSummarizesStructure) {
  Graph g(7);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  const auto m = analyze(g);
  EXPECT_EQ(m.vertices, 7U);
  EXPECT_EQ(m.edges, 4U);
  EXPECT_EQ(m.components, 4U);  // triangle, pair, 2 singletons
  EXPECT_EQ(m.largest_component, 3U);
  // Connected ordered pairs: 3*2 + 2*1 = 8 of 42.
  EXPECT_NEAR(m.connected_pair_fraction, 8.0 / 42.0, 1e-12);
}

TEST(Metrics, ReferencePathLengths) {
  EXPECT_DOUBLE_EQ(regular_lattice_path_length(100, 4), 12.5);
  EXPECT_NEAR(random_graph_path_length(100, 4),
              std::log(100.0) / std::log(4.0), 1e-12);
  EXPECT_DOUBLE_EQ(regular_lattice_path_length(100, 0), 0.0);
  EXPECT_DOUBLE_EQ(random_graph_path_length(1, 4), 0.0);
}

TEST(Metrics, EmptyGraphIsSafe) {
  const Graph g(0);
  const auto m = analyze(g);
  EXPECT_EQ(m.vertices, 0U);
  EXPECT_DOUBLE_EQ(m.clustering, 0.0);
  EXPECT_DOUBLE_EQ(m.path_length, 0.0);
}

}  // namespace

// Undirected graph snapshots (physical connectivity or P2P overlay).
// Hop distances live where they are asked: Network::physical_hop_distance
// runs its BFS over the spatial grid, and characteristic_path_length
// (graph/metrics.hpp) over one component at a time.
#pragma once

#include <cstdint>
#include <vector>

namespace p2p::graph {

using Vertex = std::uint32_t;
inline constexpr int kUnreachable = -1;

class Graph {
 public:
  explicit Graph(std::size_t n) : adj_(n) {}
  /// Adopt an existing adjacency structure (e.g. Network::adjacency_snapshot).
  explicit Graph(std::vector<std::vector<Vertex>> adjacency)
      : adj_(std::move(adjacency)) {}

  std::size_t order() const noexcept { return adj_.size(); }
  std::size_t edge_count() const noexcept;

  /// Add an undirected edge; duplicate edges are ignored.
  void add_edge(Vertex a, Vertex b);
  bool has_edge(Vertex a, Vertex b) const noexcept;

  const std::vector<Vertex>& neighbors(Vertex v) const { return adj_[v]; }
  std::size_t degree(Vertex v) const { return adj_[v].size(); }

  /// Connected-component label per vertex, labels are 0..k-1.
  std::vector<Vertex> components(std::size_t* count = nullptr) const;

 private:
  std::vector<std::vector<Vertex>> adj_;
};

}  // namespace p2p::graph

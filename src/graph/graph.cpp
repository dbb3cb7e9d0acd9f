#include "graph/graph.hpp"

#include <algorithm>
#include <queue>

namespace p2p::graph {

std::size_t Graph::edge_count() const noexcept {
  std::size_t twice = 0;
  for (const auto& nbrs : adj_) twice += nbrs.size();
  return twice / 2;
}

void Graph::add_edge(Vertex a, Vertex b) {
  if (a == b || a >= adj_.size() || b >= adj_.size()) return;
  if (has_edge(a, b)) return;
  adj_[a].push_back(b);
  adj_[b].push_back(a);
}

bool Graph::has_edge(Vertex a, Vertex b) const noexcept {
  if (a >= adj_.size() || b >= adj_.size()) return false;
  const auto& smaller = adj_[a].size() <= adj_[b].size() ? adj_[a] : adj_[b];
  const Vertex target = adj_[a].size() <= adj_[b].size() ? b : a;
  return std::find(smaller.begin(), smaller.end(), target) != smaller.end();
}

std::vector<Vertex> Graph::components(std::size_t* count) const {
  std::vector<Vertex> label(adj_.size(), static_cast<Vertex>(-1));
  Vertex next = 0;
  std::queue<Vertex> queue;
  for (Vertex s = 0; s < adj_.size(); ++s) {
    if (label[s] != static_cast<Vertex>(-1)) continue;
    label[s] = next;
    queue.push(s);
    while (!queue.empty()) {
      const Vertex v = queue.front();
      queue.pop();
      for (const Vertex w : adj_[v]) {
        if (label[w] == static_cast<Vertex>(-1)) {
          label[w] = next;
          queue.push(w);
        }
      }
    }
    ++next;
  }
  if (count != nullptr) *count = next;
  return label;
}

}  // namespace p2p::graph

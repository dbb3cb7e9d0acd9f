// Shared mini-world builder for the P2P algorithm tests: static or
// scripted nodes at explicit positions, full routing stack, one servent
// per node, everything deterministic.
#pragma once

#include <memory>
#include <vector>

#include "content/catalog.hpp"
#include "core/factory.hpp"
#include "core/hybrid.hpp"
#include "mobility/model.hpp"
#include "net/network.hpp"
#include "routing/aodv.hpp"
#include "routing/flood.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

#include "trace_model.hpp"

namespace p2ptest {

using namespace p2p;

struct RecordedRequest {
  core::FileId file;
  int answers;
  int min_physical;
  int min_p2p;
};

class TestRecorder final : public core::QueryRecorder {
 public:
  void on_request_complete(core::FileId file, int answers, int min_physical,
                           int min_p2p) override {
    requests.push_back({file, answers, min_physical, min_p2p});
  }
  std::vector<RecordedRequest> requests;
};

/// A hand-positioned world where every node runs the same algorithm.
class World {
 public:
  explicit World(core::P2pParams p2p = {}, double area = 400.0)
      : p2p_params_(p2p), rngs_(12345) {
    // Queries only run for servents that are given a placement, so tests
    // opt in by calling set_placement.
    net::NetworkParams params;
    params.region = {area, area};
    params.mac.jitter_max_s = 0.001;
    network_ = std::make_unique<net::Network>(sim_, params, rngs_.stream("mac"));
  }

  /// Add a node (static). Returns its id. Call before finalize().
  net::NodeId add_node(double x, double y) {
    return add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{x, y}));
  }

  net::NodeId add_node(std::unique_ptr<mobility::MobilityModel> model) {
    const net::NodeId id = network_->add_node(std::move(model));
    aodv_.push_back(std::make_unique<routing::AodvAgent>(
        sim_, *network_, id, routing::AodvParams{}));
    flood_.push_back(std::make_unique<routing::FloodService>(
        sim_, *network_, id, aodv_.back().get()));
    return id;
  }

  /// Create a servent on node `id`. Qualifier only matters for Hybrid.
  core::Servent& add_servent(net::NodeId id, core::AlgorithmKind kind,
                             std::uint32_t qualifier = 0) {
    core::ServentContext ctx;
    ctx.sim = &sim_;
    ctx.net = network_.get();
    ctx.routing = aodv_[id].get();
    ctx.flood = flood_[id].get();
    ctx.self = id;
    servents_.resize(std::max<std::size_t>(servents_.size(), id + 1));
    servents_[id] = core::make_servent(
        kind, ctx, p2p_params_, rngs_.stream("servent", id), qualifier);
    return *servents_[id];
  }

  /// Start every servent at t = now (staggered by 10 ms to break ties).
  void start_all() {
    double offset = 0.0;
    for (auto& servent : servents_) {
      if (!servent) continue;
      core::Servent* raw = servent.get();
      sim_.after(offset, [raw] { raw->start(); });
      offset += 0.01;
    }
  }

  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return *network_; }
  core::Servent& servent(net::NodeId id) { return *servents_[id]; }
  core::HybridServent& hybrid(net::NodeId id) {
    return static_cast<core::HybridServent&>(*servents_[id]);
  }
  routing::AodvAgent& aodv(net::NodeId id) { return *aodv_[id]; }
  routing::FloodService& flood(net::NodeId id) { return *flood_[id]; }

  bool connected(net::NodeId a, net::NodeId b) {
    return servents_[a]->connections().connected(b);
  }
  bool symmetric(net::NodeId a, net::NodeId b) {
    return connected(a, b) && connected(b, a);
  }

  core::P2pParams& p2p_params() { return p2p_params_; }

 private:
  core::P2pParams p2p_params_;
  sim::RngManager rngs_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<routing::AodvAgent>> aodv_;
  std::vector<std::unique_ptr<routing::FloodService>> flood_;
  std::vector<std::unique_ptr<core::Servent>> servents_;
};

/// A line of `n` nodes spaced `spacing` metres apart (default: in radio
/// range of immediate neighbors only).
inline std::vector<net::NodeId> make_line(World& world, std::size_t n,
                                          double spacing = 8.0) {
  std::vector<net::NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(
        world.add_node(5.0 + spacing * static_cast<double>(i), 50.0));
  }
  return ids;
}

/// A tight cluster where everyone hears everyone.
inline std::vector<net::NodeId> make_cluster(World& world, std::size_t n,
                                             double cx = 50.0,
                                             double cy = 50.0) {
  std::vector<net::NodeId> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(world.add_node(cx + static_cast<double>(i % 3),
                                 cy + static_cast<double>(i / 3)));
  }
  return ids;
}

}  // namespace p2ptest

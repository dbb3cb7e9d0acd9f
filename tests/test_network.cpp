// Network: unit-disk delivery, unicast/broadcast semantics, loss, energy
// charging, node failure, half-duplex serialization, and snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/model.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/mac.hpp"
#include "net/neighbor_index.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

#include "trace_model.hpp"

namespace {

using namespace p2p;
using net::Frame;
using net::FramePayload;
using net::Network;
using net::NetworkParams;
using net::NodeId;

struct TestPayload final : FramePayload {
  int tag = 0;
  explicit TestPayload(int t) : tag(t) {}
};

struct Recorder final : net::LinkListener {
  std::vector<Frame> frames;
  void on_frame(const Frame& frame) override { frames.push_back(frame); }
};

struct Fixture {
  sim::Simulator sim;
  NetworkParams params;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<Recorder>> recorders;

  explicit Fixture(double range = 10.0) {
    params.range = range;
    params.mac.jitter_max_s = 0.0;  // deterministic timing for tests
    net = std::make_unique<Network>(sim, params, sim::RngStream(1));
  }

  NodeId add(double x, double y) {
    const NodeId id =
        net->add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{x, y}));
    recorders.push_back(std::make_unique<Recorder>());
    net->attach_listener(id, recorders.back().get());
    return id;
  }

  std::size_t received(NodeId id) const {
    return recorders[id]->frames.size();
  }
};

TEST(Network, InRangeIsSymmetricAndDistanceBased) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(9.9, 0);
  const NodeId c = f.add(19.0, 0);
  EXPECT_TRUE(f.net->in_range(a, b));
  EXPECT_TRUE(f.net->in_range(b, a));
  EXPECT_FALSE(f.net->in_range(a, c));   // 19 m apart
  EXPECT_TRUE(f.net->in_range(b, c));    // 9.1 m apart
  EXPECT_TRUE(f.net->in_range(a, a));
}

TEST(Network, BroadcastReachesOnlyInRangeNodes) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  const NodeId c = f.add(9, 0);
  const NodeId d = f.add(15, 0);
  f.net->broadcast(a, net::make_payload<const TestPayload>(1), 64);
  f.sim.run();
  EXPECT_EQ(f.received(a), 0U);  // no self-delivery
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_EQ(f.received(c), 1U);
  EXPECT_EQ(f.received(d), 0U);
  EXPECT_EQ(f.net->frames_transmitted(), 1U);
  EXPECT_EQ(f.net->frames_delivered(), 2U);
}

TEST(Network, BroadcastFrameCarriesSenderAndPayload) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  f.net->broadcast(a, net::make_payload<const TestPayload>(42), 64);
  f.sim.run();
  ASSERT_EQ(f.received(b), 1U);
  const Frame& frame = f.recorders[b]->frames[0];
  EXPECT_EQ(frame.sender, a);
  EXPECT_EQ(frame.link_dst, net::kBroadcast);
  EXPECT_EQ(frame.size_bytes, 64U);
  const auto* payload = dynamic_cast<const TestPayload*>(frame.payload.get());
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->tag, 42);
}

TEST(Network, UnicastReachesOnlyTheAddressee) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  const NodeId c = f.add(5, 1);
  f.net->unicast(a, b, net::make_payload<const TestPayload>(1), 32);
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_EQ(f.received(c), 0U);
  EXPECT_EQ(f.recorders[b]->frames[0].link_dst, b);
}

TEST(Network, UnicastOutOfRangeIsSilentlyLost) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(50, 0);
  f.net->unicast(a, b, net::make_payload<const TestPayload>(1), 32);
  f.sim.run();
  EXPECT_EQ(f.received(b), 0U);
  EXPECT_EQ(f.net->frames_lost(), 1U);
  // The sender still paid transmit energy (radios don't know).
  EXPECT_EQ(f.net->energy(a).frames_sent(), 1U);
}

TEST(Network, DeliveryIsDelayedNotImmediate) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  f.net->broadcast(a, net::make_payload<const TestPayload>(1), 64);
  EXPECT_EQ(f.received(b), 0U);  // nothing until events run
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_GT(f.sim.now(), 0.0);
}

TEST(Network, HalfDuplexSerializesTransmissions) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  f.add(5, 0);
  // Two back-to-back broadcasts: second arrival strictly after first.
  f.net->broadcast(a, net::make_payload<const TestPayload>(1), 1500);
  f.net->broadcast(a, net::make_payload<const TestPayload>(2), 1500);
  std::vector<double> arrivals;
  // Run and capture arrival times via the simulator clock at delivery.
  f.sim.run();
  ASSERT_EQ(f.received(1), 2U);
  const double airtime = net::tx_duration(f.params.mac, 1500);
  // Second frame cannot start before the first finishes.
  EXPECT_GE(f.sim.now(), 2 * airtime);
}

TEST(Network, LossProbabilityOneDropsEverything) {
  sim::Simulator sim;
  NetworkParams params;
  params.mac.loss_probability = 1.0;
  Network network(sim, params, sim::RngStream(1));
  const NodeId a =
      network.add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{0, 0}));
  const NodeId b =
      network.add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{5, 0}));
  Recorder recorder;
  network.attach_listener(b, &recorder);
  network.broadcast(a, net::make_payload<const TestPayload>(1), 64);
  network.unicast(a, b, net::make_payload<const TestPayload>(2), 64);
  sim.run();
  EXPECT_TRUE(recorder.frames.empty());
  EXPECT_EQ(network.frames_lost(), 2U);
}

TEST(Network, FailedNodeNeitherSendsNorReceives) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  f.net->set_failed(b, true);
  EXPECT_FALSE(f.net->alive(b));
  f.net->broadcast(a, net::make_payload<const TestPayload>(1), 64);
  f.sim.run();
  EXPECT_EQ(f.received(b), 0U);

  f.net->broadcast(b, net::make_payload<const TestPayload>(2), 64);
  f.sim.run();
  EXPECT_EQ(f.received(a), 0U);

  f.net->set_failed(b, false);
  f.net->broadcast(a, net::make_payload<const TestPayload>(3), 64);
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
}

TEST(Network, EnergyChargedForTxAndRx) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  f.net->broadcast(a, net::make_payload<const TestPayload>(1), 100);
  f.sim.run();
  EXPECT_GT(f.net->energy(a).consumed_j(), 0.0);
  EXPECT_GT(f.net->energy(b).consumed_j(), 0.0);
  EXPECT_EQ(f.net->energy(a).bytes_sent(), 100U);
  EXPECT_EQ(f.net->energy(b).bytes_received(), 100U);
}

TEST(Network, ReceiversOfMatchesInRange) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  f.add(3, 0);
  f.add(0, 9);
  f.add(30, 30);
  std::vector<NodeId> receivers;
  f.net->receivers_of(a, &receivers);
  EXPECT_EQ(receivers.size(), 2U);
}

TEST(Network, AdjacencySnapshotIsSymmetricUnitDisk) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(6, 0);
  const NodeId c = f.add(12, 0);
  const auto adj = f.net->adjacency_snapshot();
  ASSERT_EQ(adj.size(), 3U);
  EXPECT_EQ(adj[a], std::vector<NodeId>{b});
  EXPECT_EQ(adj[c], std::vector<NodeId>{b});
  EXPECT_EQ(adj[b].size(), 2U);
}

TEST(Network, AdjacencySnapshotExcludesDeadNodes) {
  Fixture f;
  f.add(0, 0);
  const NodeId b = f.add(6, 0);
  f.net->set_failed(b, true);
  const auto adj = f.net->adjacency_snapshot();
  EXPECT_TRUE(adj[0].empty());
  EXPECT_TRUE(adj[b].empty());
}

TEST(Network, MultipleListenersAllReceive) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  const NodeId b = f.add(5, 0);
  Recorder extra;
  f.net->attach_listener(b, &extra);
  f.net->broadcast(a, net::make_payload<const TestPayload>(1), 64);
  f.sim.run();
  EXPECT_EQ(f.received(b), 1U);
  EXPECT_EQ(extra.frames.size(), 1U);
}

TEST(Network, GrayZoneProbabilityModel) {
  net::MacParams mac;
  mac.gray_zone_fraction = 0.3;  // soft edge from 7 m to 10 m
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 3.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 7.0, 10.0), 1.0);
  EXPECT_NEAR(net::gray_zone_delivery_probability(mac, 8.5, 10.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 10.0, 10.0), 0.0);
  mac.gray_zone_fraction = 0.0;  // hard disk
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 9.99, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(net::gray_zone_delivery_probability(mac, 10.01, 10.0), 0.0);
}

TEST(Network, GrayZoneDropsSomeEdgeFramesButNotInnerOnes) {
  sim::Simulator sim;
  NetworkParams params;
  params.mac.jitter_max_s = 0.0;
  params.mac.gray_zone_fraction = 0.4;  // soft edge from 6 m outward
  Network network(sim, params, sim::RngStream(3));
  const NodeId a = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{0, 0}));
  const NodeId inner = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{4, 0}));
  const NodeId edge = network.add_node(
      std::make_unique<mobility::StaticModel>(geo::Vec2{9, 0}));
  Recorder inner_rec, edge_rec;
  network.attach_listener(inner, &inner_rec);
  network.attach_listener(edge, &edge_rec);
  const int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    network.broadcast(a, net::make_payload<const TestPayload>(i), 32);
  }
  sim.run();
  // Inside the solid zone: everything arrives. On the edge (p = 0.25):
  // a clear minority arrives.
  EXPECT_EQ(inner_rec.frames.size(), static_cast<std::size_t>(kFrames));
  EXPECT_GT(edge_rec.frames.size(), 0U);
  EXPECT_LT(edge_rec.frames.size(), static_cast<std::size_t>(kFrames) / 2);
  EXPECT_GT(network.frames_lost(), 0U);
}

TEST(Network, MovingNodesChangeConnectivity) {
  sim::Simulator sim;
  NetworkParams params;
  params.mac.jitter_max_s = 0.0;
  params.index_tolerance_s = 0.1;
  Network network(sim, params, sim::RngStream(1));
  // b walks away from a at 1 m/s starting in range.
  const NodeId a =
      network.add_node(std::make_unique<mobility::StaticModel>(geo::Vec2{0, 0}));
  auto trace = std::make_unique<mobility::TraceModel>(
      geo::Vec2{5.0, 0.0},
      std::vector<mobility::TraceStep>{{0.0, {100.0, 0.0}, 1.0}});
  const NodeId b = network.add_node(std::move(trace));
  EXPECT_TRUE(network.in_range(a, b));
  sim.run_until(20.0);  // b is now at x=25
  EXPECT_FALSE(network.in_range(a, b));
}

// Listener that appends (receiver, payload tag) to a shared log, so tests
// can observe the *global* delivery order across all nodes.
struct OrderRecorder final : net::LinkListener {
  NodeId self = net::kInvalidNode;
  std::vector<std::pair<int, NodeId>>* log = nullptr;
  void on_frame(const Frame& frame) override {
    const auto* payload = dynamic_cast<const TestPayload*>(frame.payload.get());
    log->emplace_back(payload != nullptr ? payload->tag : -1, self);
  }
};

// The batched arrival event must be observationally identical to the old
// per-receiver-event baseline: survivors are delivered in receiver order
// (the order receivers_of() reports), one broadcast after another.
TEST(Network, BatchedBroadcastMatchesPerReceiverDeliveryOrder) {
  Fixture f;
  const NodeId a = f.add(0, 0);
  std::vector<NodeId> listeners;
  listeners.push_back(f.add(5, 0));
  listeners.push_back(f.add(2, 2));
  listeners.push_back(f.add(9, -1));
  listeners.push_back(f.add(-4, 4));

  std::vector<NodeId> order;
  f.net->receivers_of(a, &order);
  ASSERT_EQ(order.size(), listeners.size());

  std::vector<std::pair<int, NodeId>> log;
  std::vector<OrderRecorder> recs(listeners.size());
  for (std::size_t i = 0; i < listeners.size(); ++i) {
    recs[i].self = listeners[i];
    recs[i].log = &log;
    f.net->attach_listener(listeners[i], &recs[i]);
  }

  const std::uint64_t before = f.sim.events_scheduled();
  const int kFrames = 3;
  for (int i = 0; i < kFrames; ++i) {
    f.net->broadcast(a, net::make_payload<const TestPayload>(i), 64);
  }
  // One arrival event per transmission, regardless of receiver count.
  EXPECT_EQ(f.sim.events_scheduled() - before,
            static_cast<std::uint64_t>(kFrames));
  f.sim.run();

  std::vector<std::pair<int, NodeId>> expected;
  for (int i = 0; i < kFrames; ++i) {
    for (const NodeId r : order) expected.emplace_back(i, r);
  }
  EXPECT_EQ(log, expected);
}

// With loss and gray-zone fading enabled, the batched path must consume
// mac RNG draws in the exact order the per-receiver baseline did: one
// jitter draw per transmission, then a loss draw and a gray-zone draw per
// in-range receiver, in receiver order. A twin RngStream seeded alike
// replays that schedule and predicts every survivor.
TEST(Network, BatchedBroadcastMatchesPerReceiverChannelDraws) {
  sim::Simulator sim;
  NetworkParams params;
  params.range = 10.0;
  params.mac.loss_probability = 0.3;
  params.mac.gray_zone_fraction = 0.5;
  const std::uint64_t kSeed = 7;
  Network network(sim, params, sim::RngStream(kSeed));

  std::vector<geo::Vec2> pos = {
      {0, 0}, {2, 0}, {4, 1}, {8, 0}, {9.5, 0}, {6, -3}, {20, 20}};
  std::vector<NodeId> ids;
  for (const auto& p : pos) {
    ids.push_back(network.add_node(std::make_unique<mobility::StaticModel>(p)));
  }
  const NodeId sender = ids[0];

  std::vector<NodeId> order;
  network.receivers_of(sender, &order);  // consumes no RNG
  ASSERT_EQ(order.size(), 5U);           // (20,20) is out of range

  std::vector<std::pair<int, NodeId>> log;
  std::vector<OrderRecorder> recs(ids.size());
  for (std::size_t i = 1; i < ids.size(); ++i) {
    recs[i].self = ids[i];
    recs[i].log = &log;
    network.attach_listener(ids[i], &recs[i]);
  }

  // Replay the baseline draw schedule on a twin stream.
  sim::RngStream twin(kSeed);
  std::vector<std::pair<int, NodeId>> expected;
  std::size_t expected_lost = 0;
  const int kFrames = 40;
  for (int i = 0; i < kFrames; ++i) {
    (void)twin.uniform(0.0, params.mac.jitter_max_s);  // schedule_tx jitter
    for (const NodeId r : order) {
      bool lost = twin.chance(params.mac.loss_probability);
      if (!lost) {
        const double dist = geo::distance(pos[sender], pos[r]);
        lost = !twin.chance(
            net::gray_zone_delivery_probability(params.mac, dist, params.range));
      }
      if (lost) {
        ++expected_lost;
      } else {
        expected.emplace_back(i, r);
      }
    }
  }

  for (int i = 0; i < kFrames; ++i) {
    network.broadcast(sender, net::make_payload<const TestPayload>(i), 64);
  }
  sim.run();

  EXPECT_EQ(log, expected);
  EXPECT_EQ(network.frames_lost(), expected_lost);
  EXPECT_EQ(network.frames_delivered(), expected.size());
}

// The buffer-reuse overload of adjacency_snapshot must agree with the
// value-returning one and must fully overwrite stale rows on reuse.
TEST(Network, AdjacencySnapshotBufferReuseMatchesFresh) {
  Fixture f;
  f.add(0, 0);
  const NodeId b = f.add(6, 0);
  f.add(12, 0);

  std::vector<std::vector<NodeId>> buffer;
  f.net->adjacency_snapshot(&buffer);
  EXPECT_EQ(buffer, f.net->adjacency_snapshot());

  // Kill the hub and snapshot into the SAME buffer: every stale mention
  // of b must be gone even though row capacity is recycled.
  f.net->set_failed(b, true);
  f.net->adjacency_snapshot(&buffer);
  EXPECT_EQ(buffer, f.net->adjacency_snapshot());
  EXPECT_TRUE(buffer[b].empty());
  for (const auto& row : buffer) {
    EXPECT_TRUE(std::find(row.begin(), row.end(), b) == row.end());
  }
}

// Reference for physical_hop_distance: plain BFS over a full adjacency
// snapshot, early-exiting once `dst` is reached.
int snapshot_bfs_distance(const std::vector<std::vector<NodeId>>& adj,
                          NodeId src, NodeId dst) {
  if (src >= adj.size() || dst >= adj.size()) return graph::kUnreachable;
  if (src == dst) return 0;
  std::vector<int> dist(adj.size(), graph::kUnreachable);
  std::vector<NodeId> queue{src};
  dist[src] = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (const NodeId w : adj[v]) {
      if (dist[w] != graph::kUnreachable) continue;
      dist[w] = dist[v] + 1;
      if (w == dst) return dist[w];
      queue.push_back(w);
    }
  }
  return graph::kUnreachable;
}

// physical_hop_distance runs its BFS over the spatial grid; the answer
// must equal a BFS over the full snapshot in every case (chain,
// unreachable island, dead endpoint, self).
TEST(Network, PhysicalHopDistanceGridPathMatchesSnapshotBfs) {
  Fixture f;
  std::vector<NodeId> chain;
  for (int i = 0; i < 5; ++i) chain.push_back(f.add(6.0 * i, 0.0));
  const NodeId island = f.add(100.0, 100.0);
  const NodeId dead = f.add(3.0, 5.0);
  f.net->set_failed(dead, true);

  const auto adj = f.net->adjacency_snapshot();
  for (NodeId src = 0; src < 7; ++src) {
    for (NodeId dst = 0; dst < 7; ++dst) {
      EXPECT_EQ(f.net->physical_hop_distance(src, dst),
                snapshot_bfs_distance(adj, src, dst))
          << "src=" << src << " dst=" << dst;
    }
  }
  EXPECT_EQ(f.net->physical_hop_distance(chain[0], chain[4]), 4);
  EXPECT_EQ(f.net->physical_hop_distance(chain[0], island),
            graph::kUnreachable);
  EXPECT_EQ(f.net->physical_hop_distance(chain[0], dead),
            graph::kUnreachable);
}

// The network has one observer slot. Attaching over an occupied slot
// would silently stop the current observer (the invariant checker lost
// its delivery checks that way under --trace), so it aborts; detaching
// first and re-attaching is the explicit hand-over.
struct NullObserver final : net::NetObserver {
  void on_transmit(double, NodeId, NodeId, std::size_t) override {}
  void on_deliver(double, NodeId, NodeId, std::size_t) override {}
  void on_drop(double, NodeId, NodeId, std::size_t) override {}
};

TEST(NetworkDeathTest, SetObserverRefusesToDetachAnother) {
  Fixture f;
  NullObserver first, second;
  f.net->set_observer(&first);
  EXPECT_EQ(f.net->observer(), &first);
  EXPECT_DEATH(f.net->set_observer(&second), "silently detach");
  f.net->set_observer(nullptr);
  f.net->set_observer(&second);
  EXPECT_EQ(f.net->observer(), &second);
}

TEST(Network, PositionOfMatchesTwinModelsBitForBit) {
  // position_of answers from the per-node leg table and asks the model
  // only when a leg expires. At random non-decreasing instants (a quarter
  // of them repeats of the previous one), interleaved with index rebuilds
  // that read the same table, every answer must equal what a twin model
  // queried directly returns — for every mobility model kind.
  sim::Simulator sim;
  NetworkParams params;
  params.region = {60.0, 60.0};
  Network net(sim, params, sim::RngStream(1));
  std::vector<std::unique_ptr<mobility::MobilityModel>> twins;
  const auto add = [&](const std::function<
                       std::unique_ptr<mobility::MobilityModel>()>& make) {
    net.add_node(make());
    twins.push_back(make());
  };
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    add([seed] {
      mobility::RandomWaypointParams p;
      p.region = {60.0, 60.0};
      p.max_pause = 4.0;
      p.pause_first = seed % 2 == 0;
      return std::make_unique<mobility::RandomWaypoint>(
          p, sim::RngStream(100 + seed));
    });
  }
  add([] {
    mobility::RandomDirectionParams p;
    p.region = {60.0, 60.0};
    p.max_pause = 2.0;
    return std::make_unique<mobility::RandomDirection>(p, sim::RngStream(7));
  });
  add([] {
    mobility::GaussMarkovParams p;
    p.region = {60.0, 60.0};
    p.step = 0.1;
    return std::make_unique<mobility::GaussMarkov>(p, sim::RngStream(9));
  });
  add([] { return std::make_unique<mobility::StaticModel>(geo::Vec2{5, 6}); });
  add([] {
    return std::make_unique<mobility::TraceModel>(
        geo::Vec2{1.0, 1.0},
        std::vector<mobility::TraceStep>{{3.0, {40.0, 1.0}, 1.5},
                                         {20.0, {10.0, 50.0}, 0.0}});
  });

  sim::RngStream rng(77);
  std::vector<NodeId> scratch;
  double t = 0.0;
  for (int k = 0; k < 4000; ++k) {
    if (rng.chance(0.75)) t += rng.uniform(0.0, 0.6);
    sim.run_until(t);
    if (k % 7 == 0) net.receivers_of(0, &scratch);  // may rebuild the index
    const auto id = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(twins.size()) - 1));
    const geo::Vec2 got = net.position_of(id);
    const geo::Vec2 want = twins[id]->position_at(t);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.x),
              std::bit_cast<std::uint64_t>(want.x))
        << "node " << id << " at t=" << t;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.y),
              std::bit_cast<std::uint64_t>(want.y))
        << "node " << id << " at t=" << t;
  }
}

// ---- NeighborIndex steady-state allocation lock-in ------------------------

// Deterministic, exactly-periodic motion field: node positions repeat every
// kStepsPerCycle refresh steps (the angle is computed from the step index,
// not accumulated time, so cycle N reproduces cycle 1 bit-for-bit). One
// full cycle therefore drives every bucket to its maximum occupancy — after
// a warm-up cycle no refresh may allocate again.
struct OscillatingField {
  static constexpr int kStepsPerCycle = 50;
  std::vector<geo::Vec2> centers;
  int step = 0;
  geo::Vec2 at(NodeId id) const {
    const double phase = 0.7 * static_cast<double>(id);
    const double angle = 2.0 * 3.14159265358979323846 *
                         static_cast<double>(step % kStepsPerCycle) /
                         static_cast<double>(kStepsPerCycle);
    // Amplitude * angular step per refresh stays under the declared
    // max_speed of 1 m/s.
    return {centers[id].x + 3.0 * std::sin(angle + phase),
            centers[id].y + 3.0 * std::cos(angle + 1.3 * phase)};
  }
};

TEST(NeighborIndex, SteadyStateRefreshesAreAllocationFree) {
  const geo::Region region{100.0, 100.0};
  constexpr std::size_t kNodes = 200;
  OscillatingField field;
  sim::RngStream rng(42);
  field.centers.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    field.centers.push_back(
        {rng.uniform(5.0, 95.0), rng.uniform(5.0, 95.0)});
  }

  net::NeighborIndex full(region, 10.0, 0.25, 1.0);
  std::vector<geo::Vec2> positions(kNodes);
  const double dt = 0.4;  // > tolerance, so every step really refreshes

  auto advance = [&](int steps) {
    for (int k = 0; k < steps; ++k) {
      ++field.step;
      const double now = dt * static_cast<double>(field.step);
      for (std::size_t i = 0; i < kNodes; ++i) {
        positions[i] = field.at(static_cast<NodeId>(i));
      }
      full.refresh(now, positions);
    }
  };

  // Warm-up: two full motion cycles grow every bucket to the high-water
  // mark the workload can ever need.
  advance(2 * OscillatingField::kStepsPerCycle);
  const std::uint64_t full_allocs = full.alloc_events();

  // Steady state: two more cycles of identical motion. Any further
  // allocation is a regression in the hoisting (clear() losing capacity,
  // a scratch buffer rebuilt per refresh, ...).
  advance(2 * OscillatingField::kStepsPerCycle);
  EXPECT_EQ(full.alloc_events(), full_allocs);
}

}  // namespace

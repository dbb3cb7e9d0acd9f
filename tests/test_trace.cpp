// Packet tracing: the writer's line format, the network's observer hook,
// and the writer forwarding to the observer it replaces.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mobility/model.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "trace/trace.hpp"

namespace {

using namespace p2p;
using net::NodeId;

struct NoopPayload final : net::FramePayload {};

// Counts every observed event per kind, overall and by acting node
// (sender for transmits and drops, receiver for deliveries).
struct CountingObserver final : net::NetObserver {
  enum Kind { kTransmit, kDeliver, kDrop };
  explicit CountingObserver(std::size_t nodes) : per_node(nodes) {}
  void on_transmit(double, NodeId node, NodeId, std::size_t) override {
    count(kTransmit, node);
  }
  void on_deliver(double, NodeId node, NodeId, std::size_t) override {
    count(kDeliver, node);
  }
  void on_drop(double, NodeId sender, NodeId, std::size_t) override {
    count(kDrop, sender);
  }
  void count(Kind kind, NodeId node) {
    ++totals[kind];
    ++per_node.at(node)[kind];
  }
  std::array<std::uint64_t, 3> totals{};
  std::vector<std::array<std::uint64_t, 3>> per_node;
};

std::unique_ptr<net::Network> make_network(sim::Simulator& sim,
                                           const std::vector<geo::Vec2>& at,
                                           std::uint64_t seed = 1) {
  net::NetworkParams params;
  params.mac.jitter_max_s = 0.0;
  auto network =
      std::make_unique<net::Network>(sim, params, sim::RngStream(seed));
  for (const geo::Vec2 p : at) {
    network->add_node(std::make_unique<mobility::StaticModel>(p));
  }
  return network;
}

TEST(Trace, WriterRendersNs2Lines) {
  sim::Simulator sim;
  const auto network = make_network(sim, {});
  std::ostringstream os;
  trace::Writer writer(os, *network);
  writer.on_transmit(1.5, 3, net::kBroadcast, 64);
  writer.on_deliver(2.25, 7, 3, 64);
  writer.on_drop(3.0, 3, 9, 128);
  writer.on_transmit(0.0270915, 76, 12, 37);
  EXPECT_EQ(os.str(),
            "s 1.5 3 bcast 64\n"
            "r 2.25 7 3 64\n"
            "d 3 3 9 128\n"
            "s 0.0270915 76 12 37\n");
}

TEST(Trace, NetworkObserverSeesTransmitsDeliveriesAndDrops) {
  sim::Simulator sim;
  const auto network = make_network(sim, {{0, 0}, {5, 0}, {90, 90}});
  const NodeId a = 0, b = 1, far = 2;
  CountingObserver counter(3);
  network->set_observer(&counter);

  network->broadcast(a, net::make_payload<const NoopPayload>(), 64);
  network->unicast(a, b, net::make_payload<const NoopPayload>(), 32);
  network->unicast(a, far, net::make_payload<const NoopPayload>(), 32);  // drop
  sim.run();

  EXPECT_EQ(counter.totals[CountingObserver::kTransmit], 3U);
  EXPECT_EQ(counter.totals[CountingObserver::kDeliver], 2U);  // bcast+unicast
  EXPECT_EQ(counter.totals[CountingObserver::kDrop], 1U);
  EXPECT_EQ(counter.per_node[a][CountingObserver::kTransmit], 3U);
  EXPECT_EQ(counter.per_node[b][CountingObserver::kDeliver], 2U);

  // Detaching stops recording.
  network->set_observer(nullptr);
  network->broadcast(a, net::make_payload<const NoopPayload>(), 64);
  sim.run();
  EXPECT_EQ(counter.totals[CountingObserver::kTransmit], 3U);
}

TEST(Trace, ObserverMatchesNetworkCounters) {
  sim::Simulator sim;
  std::vector<geo::Vec2> line;
  for (int i = 0; i < 6; ++i) line.push_back({5.0 * i, 0.0});
  const auto network = make_network(sim, line, 2);
  CountingObserver counter(6);
  network->set_observer(&counter);
  for (NodeId n = 0; n < 6; ++n) {
    network->broadcast(n, net::make_payload<const NoopPayload>(), 48);
  }
  sim.run();
  EXPECT_EQ(counter.totals[CountingObserver::kTransmit],
            network->frames_transmitted());
  EXPECT_EQ(counter.totals[CountingObserver::kDeliver],
            network->frames_delivered());
}

// `p2pmanet_sim --trace` attaches the writer after the run attached its
// invariant checker. The writer must keep the checker fed: every event it
// writes also reaches the observer it replaced.
TEST(Trace, WriterForwardsToTheObserverItReplaces) {
  sim::Simulator sim;
  const auto network = make_network(sim, {{0, 0}, {5, 0}, {0, 5}});
  CountingObserver checker(3);
  network->set_observer(&checker);
  std::ostringstream os;
  trace::Writer writer(os, *network);
  EXPECT_EQ(network->observer(), &writer);

  network->broadcast(0, net::make_payload<const NoopPayload>(), 64);
  sim.run();

  EXPECT_EQ(checker.totals[CountingObserver::kTransmit], 1U);
  EXPECT_EQ(checker.totals[CountingObserver::kDeliver], 2U);
  EXPECT_EQ(checker.per_node[1][CountingObserver::kDeliver], 1U);
  EXPECT_EQ(checker.per_node[2][CountingObserver::kDeliver], 1U);
  std::istringstream lines(os.str());
  std::string text;
  std::vector<char> codes;
  while (std::getline(lines, text)) codes.push_back(text.at(0));
  EXPECT_EQ(codes, (std::vector<char>{'s', 'r', 'r'}));
}

}  // namespace

// google-benchmark microbenches for the simulation substrate: the event
// queue, the spatial index / channel, AODV route discovery, flooding,
// graph metrics, mobility sampling, and a full miniature run.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/metrics.hpp"
#include "mobility/random_waypoint.hpp"
#include "net/network.hpp"
#include "routing/aodv.hpp"
#include "routing/flood.hpp"
#include "scenario/run.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2p;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::RngStream rng(42);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(rng.uniform(0.0, 1000.0), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueCancel(benchmark::State& state) {
  sim::RngStream rng(42);
  for (auto _ : state) {
    sim::EventQueue queue;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(queue.push(rng.uniform(0.0, 1000.0), [] {}));
    }
    for (const auto id : ids) queue.cancel(id);
    benchmark::DoNotOptimize(queue.empty());
  }
  state.SetItemsProcessed(2000 * state.iterations());
}
BENCHMARK(BM_EventQueueCancel);

// Steady-state kernel throughput at a fixed queue depth: the pop-one /
// push-one regime a long simulation settles into. The queue never
// empties, so this isolates per-op cost at depth `range(0)` from setup
// cost.
void BM_EventQueueSteadyState(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::RngStream rng(42);
  sim::EventQueue queue;
  double now = 0.0;
  for (std::size_t i = 0; i < depth; ++i) {
    queue.push(rng.uniform(0.0, 10.0), [] {});
  }
  for (auto _ : state) {
    auto popped = queue.pop();
    now = popped.time;
    queue.push(now + rng.uniform(0.0, 10.0), [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)
    ->Arg(64)->Arg(1000)->Arg(16384)->Arg(100000)->Arg(500000);

// Timer churn: the arm/disarm pattern of connection maintenance — push a
// timeout, cancel it, rearm. With tombstone cancellation this is O(1)
// per cancel; dead entries surface lazily at the queue front.
void BM_EventQueueTimerChurn(benchmark::State& state) {
  sim::RngStream rng(42);
  sim::EventQueue queue;
  double now = 0.0;
  // Standing background events so cancelled timers are interleaved with
  // live ones rather than forming a dead prefix.
  for (int i = 0; i < 256; ++i) queue.push(rng.uniform(0.0, 1e9), [] {});
  sim::EventId armed = sim::kInvalidEventId;
  for (auto _ : state) {
    if (armed != sim::kInvalidEventId) queue.cancel(armed);
    now += 0.25;
    armed = queue.push(now + 30.0, [] {});
  }
  state.SetItemsProcessed(2 * state.iterations());  // one push + one cancel
}
BENCHMARK(BM_EventQueueTimerChurn);

struct World {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<routing::AodvAgent>> aodv;
  std::vector<std::unique_ptr<routing::FloodService>> flood;

  explicit World(std::size_t n, double side = 100.0) {
    net::NetworkParams params;
    params.region = {side, side};
    net = std::make_unique<net::Network>(sim, params, sim::RngStream(7));
    sim::RngManager rngs(11);
    for (std::size_t i = 0; i < n; ++i) {
      mobility::RandomWaypointParams rwp;
      rwp.region = params.region;
      auto id = net->add_node(std::make_unique<mobility::RandomWaypoint>(
          rwp, rngs.stream("m", i)));
      aodv.push_back(std::make_unique<routing::AodvAgent>(
          sim, *net, id, routing::AodvParams{}));
      flood.push_back(std::make_unique<routing::FloodService>(
          sim, *net, id, aodv.back().get()));
    }
  }
};

void BM_NetworkBroadcast(benchmark::State& state) {
  World world(static_cast<std::size_t>(state.range(0)));
  struct Noop final : net::FramePayload {};
  const auto payload = net::make_payload<const Noop>();
  const std::uint64_t frames_before = world.net->frames_delivered();
  for (auto _ : state) {
    world.net->broadcast(0, payload, 64);
    world.sim.run();
  }
  state.counters["frames_per_sec"] = benchmark::Counter(
      static_cast<double>(world.net->frames_delivered() - frames_before),
      benchmark::Counter::kIsRate);
  state.counters["peak_queue"] =
      static_cast<double>(world.sim.peak_events_pending());
}
BENCHMARK(BM_NetworkBroadcast)->Arg(50)->Arg(150)->Arg(500);

void BM_AdjacencySnapshot(benchmark::State& state) {
  World world(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.net->adjacency_snapshot());
  }
}
BENCHMARK(BM_AdjacencySnapshot)->Arg(50)->Arg(150)->Arg(500);

void BM_FloodSixHops(benchmark::State& state) {
  World world(150);
  struct Noop final : net::AppPayload {
    std::size_t size_bytes() const noexcept override { return 23; }
  };
  const auto payload = net::make_payload<const Noop>();
  for (auto _ : state) {
    world.flood[0]->flood(payload, 6);
    world.sim.run();
  }
}
BENCHMARK(BM_FloodSixHops);

void BM_AodvDiscoveryAndSend(benchmark::State& state) {
  struct Probe final : net::AppPayload {
    std::size_t size_bytes() const noexcept override { return 23; }
  };
  const auto payload = net::make_payload<const Probe>();
  for (auto _ : state) {
    state.PauseTiming();
    World world(150);
    state.ResumeTiming();
    world.aodv[0]->send(149, payload);
    world.sim.run();
  }
}
BENCHMARK(BM_AodvDiscoveryAndSend)->Unit(benchmark::kMicrosecond)->Iterations(50);

void BM_GraphMetrics(benchmark::State& state) {
  World world(static_cast<std::size_t>(state.range(0)));
  const graph::Graph g(world.net->adjacency_snapshot());
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::analyze(g));
  }
}
BENCHMARK(BM_GraphMetrics)->Arg(50)->Arg(150)->Unit(benchmark::kMicrosecond);

void BM_RandomWaypointSample(benchmark::State& state) {
  mobility::RandomWaypointParams params;
  mobility::RandomWaypoint model(params, sim::RngStream(3));
  double t = 0.0;
  for (auto _ : state) {
    t += 0.25;
    benchmark::DoNotOptimize(model.position_at(t));
  }
}
BENCHMARK(BM_RandomWaypointSample);

void BM_FullMiniRun(benchmark::State& state) {
  for (auto _ : state) {
    scenario::Parameters params;
    params.num_nodes = 25;
    params.duration_s = 300.0;
    params.algorithm =
        static_cast<core::AlgorithmKind>(state.range(0));
    scenario::SimulationRun run(params);
    benchmark::DoNotOptimize(run.run().frames_transmitted);
  }
}
BENCHMARK(BM_FullMiniRun)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

BENCHMARK_MAIN();

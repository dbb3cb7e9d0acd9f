// Self-timed perf-regression harness for the simulator hot paths.
//
// Two suites, selectable with --suite:
//   kernel   — event-queue micro loops (push/pop sweep, steady-state
//              schedule→fire, timer-style push+cancel churn),
//   hotpath  — end-to-end wireless workloads (flooding broadcast storm and
//              a storm+churn mix over AODV), the traffic shape behind every
//              figure in the paper.
//
// Unlike the google-benchmark binary (micro_kernel), this harness emits
// machine-readable JSON so every PR can record the perf trajectory: one
// JSON object per benchmark, appended as a line to --out (JSON Lines; see
// docs/performance.md). Wall time is the only nondeterministic field —
// workloads are fixed-seed so counters (events, frames, peak queue) are
// reproducible and double as a quick determinism cross-check.
//
// Usage:
//   hotpath [--suite kernel|hotpath|all] [--label NAME] [--out FILE]
//           [--smoke] [--repeat N]
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mobility/random_waypoint.hpp"
#include "net/network.hpp"
#include "perf_record.hpp"
#include "routing/aodv.hpp"
#include "routing/flood.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2p;
using bench::Clock;
using bench::Options;
using bench::Record;
using bench::emit;
using bench::seconds_since;

// ---------------------------------------------------------------- kernel --

/// Push n random-time no-op events, then pop them all.
Record bench_push_pop(std::size_t n, int repeat) {
  Record rec;
  rec.bench = "kernel.push_pop";
  rec.ops = n * 2;  // one push + one pop each
  rec.wall_s = 1e100;
  for (int r = 0; r < repeat; ++r) {
    sim::RngStream rng(42);
    sim::EventQueue queue;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      queue.push(rng.uniform(0.0, 1000.0), [] {});
    }
    while (!queue.empty()) queue.pop();
    rec.wall_s = std::min(rec.wall_s, seconds_since(start));
  }
  return rec;
}

/// Steady-state schedule→fire: a queue of `depth` events; each pop pushes a
/// successor. This is the fast path the simulator lives on.
Record bench_steady_state(std::size_t depth, std::size_t ops, int repeat) {
  Record rec;
  rec.bench = "kernel.steady_state";
  rec.ops = ops;
  rec.wall_s = 1e100;
  for (int r = 0; r < repeat; ++r) {
    sim::RngStream rng(7);
    sim::EventQueue queue;
    for (std::size_t i = 0; i < depth; ++i) {
      queue.push(rng.uniform(0.0, 1.0), [] {});
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      auto popped = queue.pop();
      queue.push(popped.time + rng.uniform(0.0, 0.1), [] {});
    }
    rec.wall_s = std::min(rec.wall_s, seconds_since(start));
  }
  return rec;
}

/// Timer churn: the P2P maintenance pattern — schedule a timeout, cancel
/// it, reschedule. Exercises push+cancel without ever firing.
Record bench_timer_churn(std::size_t ops, int repeat) {
  Record rec;
  rec.bench = "kernel.timer_churn";
  rec.ops = ops;
  rec.wall_s = 1e100;
  for (int r = 0; r < repeat; ++r) {
    sim::RngStream rng(3);
    sim::EventQueue queue;
    // A standing population so cancels hit a realistically deep heap.
    std::vector<sim::EventId> standing;
    for (int i = 0; i < 256; ++i) {
      standing.push_back(queue.push(rng.uniform(0.0, 10.0), [] {}));
    }
    const auto start = Clock::now();
    sim::EventId pending = sim::kInvalidEventId;
    for (std::size_t i = 0; i < ops; ++i) {
      if (pending != sim::kInvalidEventId) queue.cancel(pending);
      pending = queue.push(rng.uniform(0.0, 10.0), [] {});
    }
    rec.wall_s = std::min(rec.wall_s, seconds_since(start));
  }
  return rec;
}

/// Queue-depth sweep: the steady-state loop at a pinned pending depth.
/// The ladder's per-op cost should stay flat as the depth grows
/// (methodology: docs/performance.md). peak_queue pins the live
/// high-water mark (== depth) as a guarded fixed-seed counter.
Record bench_steady_depth(const char* name, std::size_t depth,
                          std::size_t ops, int repeat) {
  Record rec;
  rec.bench = name;
  rec.ops = ops;
  rec.wall_s = 1e100;
  for (int r = 0; r < repeat; ++r) {
    sim::RngStream rng(19);
    sim::EventQueue queue;
    for (std::size_t i = 0; i < depth; ++i) {
      queue.push(rng.uniform(0.0, 1.0), [] {});
    }
    const auto start = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      auto popped = queue.pop();
      queue.push(popped.time + rng.uniform(0.0, 0.1), [] {});
    }
    rec.wall_s = std::min(rec.wall_s, seconds_since(start));
    rec.peak_queue = queue.peak_size();
  }
  return rec;
}

// --------------------------------------------------------------- hotpath --

struct StormWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<routing::AodvAgent>> aodv;
  std::vector<std::unique_ptr<routing::FloodService>> flood;

  StormWorld(std::size_t n, double side, double loss, double gray) {
    net::NetworkParams params;
    params.region = {side, side};
    params.mac.loss_probability = loss;
    params.mac.gray_zone_fraction = gray;
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

struct StormPayload final : net::AppPayload {
  std::size_t size_bytes() const noexcept override { return 23; }
};

/// Flooding broadcast storm: rotating roots originate hop-limited floods at
/// a fixed cadence — the ping/query traffic shape of the paper's figures.
/// With `churn`, nodes also fail and revive throughout the run.
Record bench_storm(const char* name, std::size_t nodes, double sim_seconds,
                   bool churn, int repeat) {
  Record rec;
  rec.bench = name;
  rec.ops_name = "frames";
  rec.wall_s = 1e100;
  for (int r = 0; r < repeat; ++r) {
    StormWorld world(nodes, 100.0, 0.05, 0.2);
    const auto payload = net::make_payload<const StormPayload>();
    // Storm driver: every 100 ms, eight rotating roots flood 6 hops deep.
    struct Driver {
      StormWorld* world;
      const net::Ref<const StormPayload>* payload;
      double until;
      std::size_t tick = 0;
      void operator()() {
        const std::size_t n = world->flood.size();
        for (std::size_t k = 0; k < 8; ++k) {
          world->flood[(tick * 7 + k * (n / 8 + 1)) % n]->flood(*payload, 6);
        }
        ++tick;
        if (world->sim.now() + 0.1 <= until) {
          world->sim.after(0.1, *this);
        }
      }
    };
    world.sim.after(0.0, Driver{&world, &payload, sim_seconds});
    if (churn) {
      // Deterministic fail/revive pulses across the run. Victims come from
      // a stateless counter hash: an RngStream (mt19937_64, ~2.5 KB) would
      // blow the inline event-capture budget.
      struct Churner {
        StormWorld* world;
        double until;
        std::uint64_t tick = 0;
        void operator()() {
          const auto n = static_cast<std::uint64_t>(world->net->size());
          const auto victim =
              static_cast<net::NodeId>(sim::splitmix64(tick ^ 0x9e3779b9) % n);
          world->net->set_failed(victim, tick % 3 != 2);  // mostly deaths
          ++tick;
          if (world->sim.now() + 0.5 <= until) world->sim.after(0.5, *this);
        }
      };
      world.sim.after(0.25, Churner{&world, sim_seconds});
    }
    const auto start = Clock::now();
    world.sim.run_until(sim_seconds);
    rec.wall_s = std::min(rec.wall_s, seconds_since(start));
    rec.ops = world.net->frames_delivered();
    rec.events = world.sim.events_processed();
    rec.frames_delivered = world.net->frames_delivered();
    rec.peak_queue = world.sim.peak_events_pending();
    rec.sim_time_s = sim_seconds;
  }
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = bench::parse_options(argc, argv, /*allow_suite=*/true);
  const bool kernel = opt.suite == "kernel" || opt.suite == "all";
  const bool hotpath = opt.suite == "hotpath" || opt.suite == "all";
  if (!kernel && !hotpath) {
    std::cerr << "unknown suite " << opt.suite << "\n";
    return 1;
  }

  if (kernel) {
    const std::size_t n = opt.smoke ? 2000 : 200000;
    const std::size_t ops = opt.smoke ? 10000 : 2000000;
    emit(bench_push_pop(n, opt.repeat), opt);
    emit(bench_steady_state(1024, ops, opt.repeat), opt);
    emit(bench_timer_churn(ops, opt.repeat), opt);
    // Depth sweep. Full depths even in smoke (the setup fill is cheap);
    // only the measured op count shrinks. The names keep their ".ladder"
    // suffix so the record history stays one series per depth.
    const std::size_t sweep_ops = opt.smoke ? 20000 : 2000000;
    struct DepthCase {
      const char* name;
      std::size_t depth;
    };
    constexpr DepthCase kDepths[] = {
        {"kernel.depth_1k.ladder", 1000},
        {"kernel.depth_100k.ladder", 100000},
        {"kernel.depth_500k.ladder", 500000},
    };
    for (const DepthCase& c : kDepths) {
      emit(bench_steady_depth(c.name, c.depth, sweep_ops, opt.repeat), opt);
    }
  }
  if (hotpath) {
    const std::size_t nodes = opt.smoke ? 30 : 300;
    const double sim_s = opt.smoke ? 2.0 : 240.0;
    emit(bench_storm("hotpath.broadcast_storm", nodes, sim_s, false,
                     opt.repeat), opt);
    emit(bench_storm("hotpath.storm_churn_mix", nodes, sim_s, true,
                     opt.repeat), opt);
    // Scale tier: same storm shape at 500 nodes (vs. the paper's 150-node
    // ceiling) on the same region — denser fan-out, bigger tables. Shorter
    // simulated span keeps the wall budget comparable to the 300-node run.
    const std::size_t big_nodes = opt.smoke ? 50 : 500;
    const double big_sim_s = opt.smoke ? 1.0 : 60.0;
    emit(bench_storm("hotpath.broadcast_storm_500", big_nodes, big_sim_s,
                     false, opt.repeat), opt);
  }
  return 0;
}

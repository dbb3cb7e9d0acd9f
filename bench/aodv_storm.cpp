// Route-discovery storm: the AODV-heavy counterpart to hotpath.cpp's
// flooding storms, built to hammer the per-route hot paths that the dense
// RoutingTable / DupCache representations serve.
//
// Workload shape: nodes wander (random waypoint) over a region ~12 radio
// ranges across, and every tick a rotating set of sources unicasts a small
// payload to a far destination. Route lifetimes are cut to a third of the
// ns-2 default, so routes keep expiring under mobility and nearly every
// send re-runs expanding-ring RREQ discovery (RFC 3561 §6.4): TTL-limited
// broadcast floods through every node's RREQ DupCache, reverse-route
// installs via RoutingTable::update, RREP unicasts along precursors, and
// RERR sweeps (destinations_via) when a moving next hop breaks a link.
//
// Emits the same JSON records as bench/hotpath.cpp (headline unit:
// delivered frames/s, dominated by RREQ flood fan-out) under the bench
// name "hotpath.aodv_storm".
//
// Usage: aodv_storm [--label NAME] [--out FILE] [--smoke] [--repeat N]
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "mobility/random_waypoint.hpp"
#include "net/network.hpp"
#include "perf_record.hpp"
#include "routing/aodv.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2p;
using bench::Clock;
using bench::Options;
using bench::Record;

struct AodvWorld {
  sim::Simulator sim;
  std::unique_ptr<net::Network> net;
  std::vector<std::unique_ptr<routing::AodvAgent>> aodv;

  AodvWorld(std::size_t n, double side) {
    net::NetworkParams params;
    params.region = {side, side};
    params.mac.loss_probability = 0.05;  // lossy channel: retries + RERRs
    net = std::make_unique<net::Network>(sim, params, sim::RngStream(19));
    routing::AodvParams ap;
    // A third of the ns-2 default: routes expire between revisits of the
    // same destination, so the table churns instead of saturating.
    ap.active_route_timeout = 3.0;
    ap.my_route_timeout = 6.0;
    sim::RngManager rngs(23);
    for (std::size_t i = 0; i < n; ++i) {
      mobility::RandomWaypointParams rwp;
      rwp.region = params.region;
      rwp.max_pause = 5.0;  // mostly moving: link breaks stay frequent
      const auto id = net->add_node(std::make_unique<mobility::RandomWaypoint>(
          rwp, rngs.stream("m", i)));
      aodv.push_back(std::make_unique<routing::AodvAgent>(sim, *net, id, ap));
    }
  }
};

struct ProbePayload final : net::AppPayload {
  std::size_t size_bytes() const noexcept override { return 31; }
};

Record bench_aodv_storm(std::size_t nodes, double side, double sim_seconds,
                        int repeat) {
  Record rec;
  rec.bench = "hotpath.aodv_storm";
  rec.ops_name = "frames";
  rec.wall_s = 1e100;
  for (int r = 0; r < repeat; ++r) {
    AodvWorld world(nodes, side);
    const auto payload = net::make_payload<const ProbePayload>();
    // Every 50 ms, four rotating sources each unicast to a destination
    // roughly half the id space away — far enough that most pairs need a
    // multi-hop route, i.e. a discovery. The stride constants are coprime
    // to typical n so the (src, dst) pairs sweep the whole matrix instead
    // of cycling through a few warm routes.
    struct Driver {
      AodvWorld* world;
      const net::Ref<const ProbePayload>* payload;
      double until;
      std::uint64_t tick = 0;
      void operator()() {
        const std::uint64_t n = world->aodv.size();
        for (std::uint64_t k = 0; k < 4; ++k) {
          const auto src = static_cast<net::NodeId>((tick * 13 + k * 37) % n);
          const auto dst = static_cast<net::NodeId>(
              (src + n / 2 + (tick + k) % 7) % n);
          if (src != dst) world->aodv[src]->send(dst, *payload);
        }
        ++tick;
        if (world->sim.now() + 0.05 <= until) world->sim.after(0.05, *this);
      }
    };
    world.sim.after(0.0, Driver{&world, &payload, sim_seconds});
    const auto start = Clock::now();
    world.sim.run_until(sim_seconds);
    rec.wall_s = std::min(rec.wall_s, bench::seconds_since(start));
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
  const Options opt = bench::parse_options(argc, argv, /*allow_suite=*/false);
  const std::size_t nodes = opt.smoke ? 40 : 200;
  const double side = opt.smoke ? 45.0 : 120.0;  // ~12 ranges across at scale
  const double sim_s = opt.smoke ? 2.0 : 120.0;
  bench::emit(bench_aodv_storm(nodes, side, sim_s, opt.repeat), opt);
  return 0;
}

// Mega-scale tier: does the full stack actually survive 10k-100k nodes?
//
// The other bench tiers measure throughput at scales where any asymptotic
// slip hides inside the constant factor. This tier exists to make the
// complexity story observable: at paper density (50 nodes per
// 100 m x 100 m, side scaling with sqrt(n)) every per-event cost must be
// O(degree) and every resident structure O(what the run touched) — a
// single O(n) scan per event or O(n) table per node turns 100k nodes into
// hours or tens of gigabytes, and this bench is where that shows up first.
//
// Workload shape: one complete scenario::SimulationRun per scale — Regular
// servents over AODV + controlled flood with the paper's Zipf query
// workload, random-waypoint mobility, fault-free. Simulated duration
// shrinks as n grows so the tier stays runnable; counters remain
// fixed-seed reproducible at every scale.
//
// Reported per record (perf_record.hpp format):
//   frames_per_sec   headline throughput (delivered link frames / wall s)
//   queries_per_sec  end-to-end overlay throughput rides along
//   peak_rss_mb      OS-reported process high-water mark — THE mega-scale
//                    acceptance number (sub-quadratic growth in n). Not a
//                    fixed-seed counter; bench_guard ignores it.
//   model_mem_mb     capacity-accounted model memory (net + routing +
//                    servent state, see RunResult) — deterministic, but
//                    machine-width dependent, so also not guarded.
//   collect_ms       end-of-run analysis time inside wall_s (omitted when
//                    zero). Timing, not guarded.
//
// Usage: megascale [--label NAME] [--out FILE] [--smoke] [--repeat N]
// --smoke runs a single bounded 10k-node slice (the `mega` ctest + the
// bench_guard counter pin); full mode runs 10k/50k/100k.
#include <cmath>
#include <cstdint>
#include <string>

#include "core/params.hpp"
#include "perf_record.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"
#include "util/mem.hpp"

namespace {

using namespace p2p;
using bench::Clock;
using bench::Options;
using bench::Record;

scenario::Parameters make_params(std::size_t nodes, double sim_seconds) {
  scenario::Parameters p;
  p.algorithm = core::AlgorithmKind::kRegular;
  p.num_nodes = nodes;
  // Paper density: 50 nodes per 100 m x 100 m cell, side grows as sqrt(n)
  // so mean degree (and with it per-event cost) stays constant.
  const double side = 100.0 * std::sqrt(static_cast<double>(nodes) / 50.0);
  p.area_width = side;
  p.area_height = side;
  p.duration_s = sim_seconds;
  p.seed = 7;  // fixed seed: every counter below must be reproducible
  // On-demand routing only: a proactive protocol (DSDV) carries a row per
  // reachable destination by design — O(n) per node is the protocol, not
  // a bug, and it is exactly what this tier must not measure.
  p.routing_protocol = scenario::RoutingProtocol::kAodv;
  // Spread the join wave across the first tenth of the run instead of the
  // default 2 s: 75k simultaneous join floods is a thundering herd the
  // paper's scenarios never produce.
  p.join_stagger_s = sim_seconds / 10.0;
  // Measurement-only machinery off: the periodic overlay sampler is
  // O(members + edges) per sample and would dominate at this scale.
  p.overlay_sample_interval_s = 0.0;
  return p;
}

Record bench_megascale(const std::string& bench_name, std::size_t nodes,
                       double sim_seconds, int repeat) {
  Record rec;
  rec.bench = bench_name;
  rec.ops_name = "frames";
  rec.wall_s = 1e100;
  const scenario::Parameters params = make_params(nodes, sim_seconds);
  double collect_s = 0.0;  // of the best repeat
  for (int r = 0; r < repeat; ++r) {
    scenario::SimulationRun run(params);
    const auto start = Clock::now();
    run.build();
    // Simulate through the simulator seam so the end-of-run analysis can
    // be timed on its own: run() then finds the clock at duration_s and
    // only collects.
    run.simulator().run_until(params.duration_s);
    const auto collect_start = Clock::now();
    const scenario::RunResult result = run.run();
    const double run_s = bench::seconds_since(collect_start);
    const double wall_s = bench::seconds_since(start);
    if (wall_s < rec.wall_s) {
      rec.wall_s = wall_s;
      collect_s = run_s;
    }

    std::uint64_t queries = 0, answers = 0;
    for (const auto& f : result.per_file) {
      queries += f.requests;
      answers += f.answers_total;
    }
    const std::size_t model_mem = result.net_memory_bytes +
                                  result.routing_memory_bytes +
                                  result.servent_memory_bytes;
    rec.ops = result.frames_delivered;
    rec.extras = {
        {"queries", queries, true},
        {"answers", answers, false},
        {"peak_rss_mb", util::peak_rss_bytes() >> 20, false},
        {"model_mem_mb", model_mem >> 20, false},
    };
    rec.events = result.events_processed;
    rec.frames_delivered = result.frames_delivered;
    rec.peak_queue = result.peak_queue_depth;
    rec.sim_time_s = sim_seconds;
  }
  // End-of-run analysis (graph metrics, counter folding) share of wall_s;
  // non-zero only, so records without it keep their byte layout.
  const auto collect_ms = static_cast<std::uint64_t>(collect_s * 1000.0 + 0.5);
  if (collect_ms > 0) rec.extras.push_back({"collect_ms", collect_ms, false});
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = bench::parse_options(argc, argv, /*allow_suite=*/false);
  if (opt.smoke) {
    // Bounded 10k-node slice: the `mega` ctest tier and the bench_guard
    // counter pin (frames/queries/events — peak_rss_mb is machine state
    // and deliberately outside the guard's counter list). 75 simulated
    // seconds is the minimum for completed queries: the first query fires
    // up to query_gap_max (45 s) after join and finalizes only after the
    // 30 s response window.
    bench::emit(bench_megascale("megascale.smoke", 10000, 75.0, opt.repeat),
                opt);
    return 0;
  }
  struct Scale {
    const char* name;
    std::size_t nodes;
    double sim_seconds;
  };
  // Same simulated duration at every scale so the records answer the
  // scaling question directly: event volume is O(n * sim_time) at constant
  // density, so wall_s and peak_rss_mb should both grow ~linearly in n —
  // anything super-linear is a reintroduced whole-population cost.
  const Scale scales[] = {
      {"megascale.10k", 10000, 90.0},
      {"megascale.50k", 50000, 90.0},
      {"megascale.100k", 100000, 90.0},
  };
  for (const Scale& s : scales) {
    // wall_s is best-of---repeat like every other tier; counters are
    // fixed-seed reproducible regardless. Use --repeat 1 when a quick
    // single pass is enough — a 100k-node world is ~a minute per rep.
    bench::emit(bench_megascale(s.name, s.nodes, s.sim_seconds, opt.repeat),
                opt);
  }
  return 0;
}

// perfbench_sim: the simulation workloads of the benchmark.
//
// Runs one simulation workload of the benchmark through the public
// scenario entry points only — SimulationRun::{build, run},
// simulator().run_until, the Network counter accessors and
// run_experiment_with's per-seed run_fn seam — and prints what it
// measured as JSON lines on stdout. perfbench/run.py turns those lines
// into metrics and checks them; this program does no statistics.
//
// Usage (from the repository root; paper150 reads configs/paper_150.ini):
//   perfbench_sim --workload paper150|churn500|mega10k --seed N
//                    --seconds S [--trace SPANS.jsonl] [--tiny]
//   perfbench_sim --serve-reference --seeds A,B,... [key=value ...]
//
// Output lines (one JSON object each):
//   {"type":"setup","s":...}        one set-up probe: every world of one
//                                   iteration built (and torn down) in turn;
//                                   probes and iterations share --seconds
//   {"type":"iter",...}             one measured iteration: timings plus a
//                                   counter map per simulated world
//   {"type":"end","peak_rss_mb":..} process high-water mark, last line
// With --trace, iterations alternate untraced/traced ("traced":1) and every
// traced iteration records spans (iteration, experiment, world, build,
// simulate.window, collect) that are written to SPANS.jsonl at exit.
// --serve-reference prints the seed line p2pd must answer for each seed of
// a default-parameter unit with the given overrides.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/params.hpp"
#include "scenario/experiment.hpp"
#include "scenario/parameters.hpp"
#include "scenario/run.hpp"
#include "scenario/telemetry.hpp"
#include "util/config.hpp"
#include "util/mem.hpp"

namespace {

using namespace p2p;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double process_cpu_s() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

// Paper Table 2, 150-node scenario, read from the repository's config file
// (relative to the working directory, the repository root) and applied
// through the same Parameters::apply every front end uses.
constexpr const char* kPaper150Config = "configs/paper_150.ini";

constexpr core::AlgorithmKind kAllAlgorithms[] = {
    core::AlgorithmKind::kBasic, core::AlgorithmKind::kRegular,
    core::AlgorithmKind::kRandom, core::AlgorithmKind::kHybrid};

// Simulated time of one world is cut into this many equal windows in a
// traced run; each window is one run_until call and one span.
constexpr int kWindows = 60;

// Model seeds of workload seed n are n * kSeedStride + k, k < kSeedStride.
constexpr std::uint64_t kSeedStride = 16;

// One workload: the fixed model (Parameters per algorithm and model seed)
// and how many experiment-pool threads an iteration runs it on.
struct Workload {
  std::string name;
  std::vector<core::AlgorithmKind> algorithms;
  std::size_t seeds_per_algorithm = 1;
  std::size_t threads = 1;
  scenario::Parameters base;
};

double paper_density_side(std::size_t nodes) {
  return 100.0 * std::sqrt(static_cast<double>(nodes) / 50.0);
}

bool make_workload(const std::string& name, bool tiny, Workload* out) {
  Workload w;
  w.name = name;
  scenario::Parameters& p = w.base;
  const unsigned hw = std::thread::hardware_concurrency();
  w.threads = std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
  if (name == "paper150") {
    std::ifstream in(kPaper150Config);
    std::stringstream text;
    text << in.rdbuf();
    util::Config config;
    std::string err = in ? "" : "cannot read";
    if (!err.empty() || !config.parse_ini(text.str(), &err) ||
        !(err = p.apply(config)).empty()) {
      std::fprintf(stderr, "%s: %s\n", kPaper150Config, err.c_str());
      return false;
    }
    p.duration_s = tiny ? 60.0 : 300.0;
    w.algorithms.assign(std::begin(kAllAlgorithms), std::end(kAllAlgorithms));
    w.seeds_per_algorithm = 8;
  } else if (name == "churn500") {
    p.num_nodes = tiny ? 100 : 500;
    p.area_width = p.area_height = paper_density_side(p.num_nodes);
    // Eight short worlds per algorithm rather than one long one. Churn
    // makes a world's event count swing by a quarter with its seed, so an
    // iteration sums many worlds to keep its work alike across workload
    // seeds (with four, iterations of ten seeds ranged over +-12%), and
    // eight a call keep the pool's threads evenly loaded. They run on the
    // pool because single-thread timings swing by 20-30% over minutes on a
    // shared host while all-core ones hold much steadier.
    p.duration_s = tiny ? 120.0 : 300.0;
    w.seeds_per_algorithm = 8;
    p.fault.churn_rate_per_hour = 3.0;
    p.fault.mean_downtime_s = 30.0;
    p.overlay_sample_interval_s = 0.0;
    w.algorithms.assign(std::begin(kAllAlgorithms), std::end(kAllAlgorithms));
  } else if (name == "mega10k") {
    // Above every population gate (ladder queue and incremental index from
    // 8192 nodes, FlatMap routing tables above 2048). Four worlds on the
    // pool rather than one 50k world on one thread, for the steadiness
    // reason given at churn500.
    p.num_nodes = tiny ? 2000 : 10000;
    p.area_width = p.area_height = paper_density_side(p.num_nodes);
    p.duration_s = tiny ? 30.0 : 90.0;
    p.routing_protocol = scenario::RoutingProtocol::kAodv;
    p.join_stagger_s = p.duration_s / 10.0;
    p.overlay_sample_interval_s = 0.0;
    w.algorithms = {core::AlgorithmKind::kRegular};
    w.seeds_per_algorithm = 4;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

const char* slug(core::AlgorithmKind alg) {
  switch (alg) {
    case core::AlgorithmKind::kBasic: return "basic";
    case core::AlgorithmKind::kRegular: return "regular";
    case core::AlgorithmKind::kRandom: return "random";
    case core::AlgorithmKind::kHybrid: return "hybrid";
  }
  return "?";
}

// In-memory span log of a traced run, written as JSONL at exit. Worker
// threads of the experiment pool append concurrently.
class SpanLog {
 public:
  long next_id() { return next_id_.fetch_add(1); }

  void add(const char* name, long id, long parent, double start, double end,
           const std::string& run, int thread, std::string attrs = {}) {
    std::ostringstream line;
    line << "{\"name\":" << quoted(name) << ",\"id\":" << id
         << ",\"parent\":" << parent << ",\"start_s\":" << num(start)
         << ",\"end_s\":" << num(end) << ",\"run\":" << quoted(run)
         << ",\"thread\":" << thread;
    if (!attrs.empty()) line << ",\"attrs\":{" << attrs << "}";
    line << "}\n";
    std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(line.str());
  }

  bool write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (const auto& l : lines_) out << l;
    return static_cast<bool>(out);
  }

 private:
  std::atomic<long> next_id_{1};
  std::mutex mu_;
  std::vector<std::string> lines_;
};

// One simulated world (one algorithm x one model seed) as measured.
struct World {
  std::string alg;
  std::uint64_t seed = 0;
  int thread = 0;
  double build_s = 0.0;
  double run_s = 0.0;      // run(): simulate + collect (untraced) or collect
  double windows_s = 0.0;  // traced: summed simulate.window spans
  double wall_s = 0.0;     // construction to destruction
  std::string counters;    // JSON object body
};

std::string counters_json(const scenario::RunResult& r,
                          scenario::SimulationRun& run) {
  std::uint64_t queries = 0, answered = 0, answers = 0;
  for (const auto& f : r.per_file) {
    queries += f.requests;
    answered += f.answered;
    answers += f.answers_total;
  }
  std::uint64_t connect = 0, ping = 0, query = 0;
  for (const auto& c : r.counters) {
    connect += c.connect_received();
    ping += c.ping_received();
    query += c.query_received();
  }
  std::ostringstream o;
  auto u = [&o](const char* k, std::uint64_t v, bool first = false) {
    o << (first ? "" : ",") << quoted(k) << ":" << v;
  };
  auto d = [&o](const char* k, double v) { o << "," << quoted(k) << ":" << num(v); };
  u("events", r.events_processed, true);
  u("queue_pushes", r.queue_pushes);
  u("queue_pops", r.queue_pops);
  u("peak_queue", r.peak_queue_depth);
  u("queue_peak_raw", r.queue_peak_raw);
  u("tombstones_purged", r.queue_tombstones_purged);
  u("queue_compactions", r.queue_compactions);
  u("frames_tx", r.frames_transmitted);
  u("frames_delivered", r.frames_delivered);
  u("frames_lost", r.frames_lost);
  u("adjacency_builds", run.network().adjacency_builds());
  u("payload_acquires", r.payload_acquires);
  u("payload_slab_allocs", r.payload_slab_allocs);
  u("net_mem_bytes", r.net_memory_bytes);
  u("routing_control", r.routing_control_messages);
  u("data_delivered", r.data_delivered);
  u("data_dropped", r.data_dropped);
  u("routing_mem_bytes", r.routing_memory_bytes);
  u("queries", queries);
  u("answered", answered);
  u("answers", answers);
  u("connect_msgs", connect);
  u("ping_msgs", ping);
  u("query_msgs", query);
  u("connections_established", r.connections_established);
  u("connections_closed", r.connections_closed);
  u("servent_mem_bytes", r.servent_memory_bytes);
  u("churn_deaths", r.churn_deaths);
  u("churn_recoveries", r.churn_recoveries);
  u("overlay_repairs", r.overlay_repairs);
  d("overlay_disrupted_s", r.overlay_disrupted_s);
  d("energy_j", r.energy_consumed_j);
  u("overlay_edges", r.overlay_final.edges);
  d("overlay_clustering", r.overlay_final.clustering);
  d("overlay_path_length", r.overlay_final.path_length);
  return o.str();
}

// Build, simulate and collect one world. Untraced: build() then run().
// Traced: build(), kWindows run_until slices, then run() — which finds the
// clock already at duration_s and only collects.
scenario::RunResult run_world(const scenario::Parameters& p, SpanLog* log,
                              long parent, const std::string& run_id,
                              World* w) {
  w->alg = slug(p.algorithm);
  w->seed = p.seed;
  scenario::RunResult result;
  const double t0 = now_s();
  {
    scenario::SimulationRun run(p);
    const long id = log != nullptr ? log->next_id() : 0;
    run.build();
    const double t1 = now_s();
    w->build_s = t1 - t0;
    if (log != nullptr) {
      log->add("build", log->next_id(), id, t0, t1, run_id, w->thread);
      sim::Simulator& sim = run.simulator();
      net::Network& net = run.network();
      for (int k = 1; k <= kWindows; ++k) {
        const double from = p.duration_s * (k - 1) / kWindows;
        const double until =
            k == kWindows ? p.duration_s : p.duration_s * k / kWindows;
        const std::uint64_t ev0 = sim.events_processed();
        const std::uint64_t tx0 = net.frames_transmitted();
        const std::uint64_t rx0 = net.frames_delivered();
        const double s = now_s();
        sim.run_until(until);
        const double e = now_s();
        w->windows_s += e - s;
        log->add("simulate.window", log->next_id(), id, s, e, run_id,
                 w->thread,
                 "\"sim_from_s\":" + num(from) + ",\"sim_until_s\":" +
                     num(until) + ",\"events\":" +
                     std::to_string(sim.events_processed() - ev0) +
                     ",\"frames_tx\":" +
                     std::to_string(net.frames_transmitted() - tx0) +
                     ",\"frames_delivered\":" +
                     std::to_string(net.frames_delivered() - rx0) +
                     ",\"pending\":" + std::to_string(sim.events_pending()));
      }
    }
    const double t2 = now_s();
    result = run.run();
    const double t3 = now_s();
    w->run_s = t3 - t2;
    if (log != nullptr) {
      log->add("collect", log->next_id(), id, t2, t3, run_id, w->thread);
    }
    w->counters = counters_json(result, run);
    if (log != nullptr) {
      const double t4 = now_s();
      log->add("world", id, parent, t0, t4, run_id,
               w->thread,
               "\"alg\":" + quoted(w->alg) +
                   ",\"seed\":" + std::to_string(w->seed));
    }
  }
  w->wall_s = now_s() - t0;
  return result;
}

std::vector<scenario::Parameters> iteration_worlds(const Workload& wl,
                                                   std::uint64_t seed) {
  std::vector<scenario::Parameters> out;
  for (const auto alg : wl.algorithms) {
    for (std::size_t k = 0; k < wl.seeds_per_algorithm; ++k) {
      scenario::Parameters p = wl.base;
      p.algorithm = alg;
      p.seed = seed * kSeedStride + k;
      out.push_back(p);
    }
  }
  return out;
}

struct Iteration {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<World> worlds;
};

// One iteration: each algorithm's seeds through run_experiment_with on
// `threads` worker threads.
Iteration run_iteration(const Workload& wl, std::uint64_t seed, int index,
                        SpanLog* log) {
  Iteration it;
  const std::vector<scenario::Parameters> worlds = iteration_worlds(wl, seed);
  it.worlds.resize(worlds.size());
  const long iter_id = log != nullptr ? log->next_id() : 0;
  const std::string iter_run = wl.name + "/" + std::to_string(index);
  const double t0 = now_s();
  const double c0 = process_cpu_s();
  const std::size_t per = wl.seeds_per_algorithm;
  for (std::size_t a = 0; a < wl.algorithms.size(); ++a) {
    const long exp_id = log != nullptr ? log->next_id() : 0;
    const double e0 = now_s();
    std::mutex mu;
    std::map<std::thread::id, int> ordinals;
    const scenario::Parameters& first = worlds[a * per];
    scenario::run_experiment_with(
        first, per, wl.threads, [&](const scenario::Parameters& p) {
          const std::size_t k = static_cast<std::size_t>(p.seed - first.seed);
          World& w = it.worlds[a * per + k];
          {
            std::lock_guard<std::mutex> lock(mu);
            w.thread = ordinals.emplace(std::this_thread::get_id(),
                                        static_cast<int>(ordinals.size()))
                           .first->second;
          }
          return run_world(p, log, exp_id,
                           iter_run + "/" + slug(p.algorithm) + "/" +
                               std::to_string(p.seed),
                           &w);
        });
    if (log != nullptr) {
      log->add("experiment", exp_id, iter_id, e0, now_s(), iter_run, 0,
               "\"alg\":" + quoted(slug(wl.algorithms[a])) +
                   ",\"threads\":" + std::to_string(wl.threads));
    }
  }
  it.wall_s = now_s() - t0;
  it.cpu_s = process_cpu_s() - c0;
  if (log != nullptr) {
    log->add("iteration", iter_id, 0, t0, t0 + it.wall_s, iter_run, 0);
  }
  return it;
}

void print_iteration(const Iteration& it, bool traced, std::size_t threads) {
  std::ostringstream o;
  o << "{\"type\":\"iter\",\"traced\":" << (traced ? 1 : 0)
    << ",\"wall_s\":" << num(it.wall_s) << ",\"cpu_s\":" << num(it.cpu_s)
    << ",\"threads\":" << threads << ",\"worlds\":[";
  for (std::size_t i = 0; i < it.worlds.size(); ++i) {
    const World& w = it.worlds[i];
    o << (i ? "," : "") << "{\"alg\":" << quoted(w.alg)
      << ",\"seed\":" << w.seed << ",\"thread\":" << w.thread
      << ",\"build_s\":" << num(w.build_s) << ",\"run_s\":" << num(w.run_s)
      << ",\"windows_s\":" << num(w.windows_s)
      << ",\"wall_s\":" << num(w.wall_s) << ",\"counters\":{" << w.counters
      << "}}";
  }
  o << "]}\n";
  std::fputs(o.str().c_str(), stdout);
  std::fflush(stdout);
}

// Set-up probe: build every world of one iteration in turn, timing only
// the SimulationRun::build calls.
double setup_probe(const Workload& wl, std::uint64_t seed) {
  double total = 0.0;
  for (const auto& p : iteration_worlds(wl, seed)) {
    scenario::SimulationRun run(p);
    const double t0 = now_s();
    run.build();
    total += now_s() - t0;
  }
  return total;
}

int run_workload(const std::string& name, std::uint64_t seed, double seconds,
                 const std::string& spans_path, bool tiny) {
  Workload wl;
  if (!make_workload(name, tiny, &wl)) {
    std::fprintf(stderr, "cannot set up workload %s\n", name.c_str());
    return 2;
  }
  // Set-up: at least five probes, more while they take under 8% of the
  // measured time, which the iterations then fill.
  const double start = now_s();
  for (int k = 0; k < 5 || now_s() - start < 0.08 * seconds; ++k) {
    std::printf("{\"type\":\"setup\",\"s\":%s}\n",
                num(setup_probe(wl, seed)).c_str());
  }
  std::fflush(stdout);

  const bool trace = !spans_path.empty();
  SpanLog log;
  double slowest = 0.0;
  int done = 0;
  // Traced runs alternate untraced and traced iterations (at least one of
  // each) so the overhead compares like with like.
  while (done == 0 || (trace && done < 2) ||
         now_s() - start + slowest <= seconds) {
    const bool traced = trace && done % 2 == 1;
    const Iteration it =
        run_iteration(wl, seed, done, traced ? &log : nullptr);
    slowest = std::max(slowest, it.wall_s);
    print_iteration(it, traced, wl.threads);
    ++done;
  }
  if (trace && !log.write(spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("{\"type\":\"end\",\"peak_rss_mb\":%s}\n",
              num(static_cast<double>(util::peak_rss_bytes()) / (1 << 20))
                  .c_str());
  return 0;
}

int serve_reference(const std::vector<std::string>& overrides,
                    const std::string& seeds) {
  util::Config config;
  for (const auto& kv : overrides) {
    std::string err;
    if (!config.parse_override(kv, &err)) {
      std::fprintf(stderr, "bad override %s: %s\n", kv.c_str(), err.c_str());
      return 2;
    }
  }
  scenario::Parameters base;
  if (std::string err = base.apply(config); !err.empty()) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }
  std::istringstream in(seeds);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    scenario::Parameters p = base;
    p.seed = std::strtoull(tok.c_str(), nullptr, 10);
    scenario::SeedTelemetry telemetry;
    scenario::run_single_seed(p, &telemetry);
    std::printf("%s\n",
                scenario::seed_line_json(telemetry, /*include_timing=*/false)
                    .c_str());
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S "
               "[--trace SPANS.jsonl] [--tiny]\n"
               "       %s --serve-reference --seeds A,B,... [key=value ...]\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans, seeds;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false, reference = false;
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      spans = argv[++i];
    } else if (a == "--seeds" && has_value) {
      seeds = argv[++i];
    } else if (a == "--tiny") {
      tiny = true;
    } else if (a == "--serve-reference") {
      reference = true;
    } else if (reference && a.find('=') != std::string::npos) {
      overrides.push_back(a);
    } else {
      return usage(argv[0]);
    }
  }
  if (reference) return serve_reference(overrides, seeds);
  if (workload.empty()) return usage(argv[0]);
  return run_workload(workload, seed, seconds, spans, tiny);
}

// Full scenario description — paper Table 2 plus everything beneath it.
//
// Defaults reproduce the paper's setup: 100 m x 100 m area, 10 m radio
// range, 50 nodes with 75% of them in the P2P overlay, random-waypoint
// mobility at <= 1 m/s with <= 100 s pauses, 20 Zipf-distributed files
// with MAXFREQ 40%, 3600 simulated seconds.
#pragma once

#include <cstdint>
#include <string>

#include "core/params.hpp"
#include "fault/params.hpp"
#include "net/energy.hpp"
#include "net/mac.hpp"
#include "routing/aodv.hpp"
#include "routing/dsdv.hpp"
#include "routing/dsr.hpp"
#include "util/config.hpp"

namespace p2p::scenario {

enum class QualifierDist : std::uint8_t {
  kUniformPermutation,  // a random total order (default)
  kTwoClass,            // 20% strong devices, 80% weak (notebooks vs PDAs)
};

enum class RoutingProtocol : std::uint8_t {
  kAodv,  // on-demand, what the paper used (best on high mobility [13])
  kDsdv,  // proactive comparison protocol (bench/ablation_routing)
  kDsr,   // on-demand source routing, the third protocol of [13]
};

enum class MobilityKind : std::uint8_t {
  kRandomWaypoint,   // the paper's model (human walking)
  kRandomDirection,  // edge-biased alternative [Camp 2002]
  kGaussMarkov,      // smooth AR(1) speed/heading [Camp 2002]
};

struct Parameters {
  // ---- world ----
  double area_width = 100.0;
  double area_height = 100.0;
  double radio_range = 10.0;
  std::size_t num_nodes = 50;
  double p2p_fraction = 0.75;
  double duration_s = 3600.0;
  std::uint64_t seed = 1;

  // ---- mobility ([Camp 2002]; the paper uses Random Waypoint) ----
  bool mobile = true;
  MobilityKind mobility_kind = MobilityKind::kRandomWaypoint;
  double max_speed = 1.0;
  double min_speed = 0.05;
  double max_pause = 100.0;

  // ---- content (§7.2) ----
  std::uint32_t num_files = 20;
  double max_frequency = 0.40;

  // ---- layers ----
  core::AlgorithmKind algorithm = core::AlgorithmKind::kRegular;
  core::P2pParams p2p;
  RoutingProtocol routing_protocol = RoutingProtocol::kAodv;
  routing::AodvParams aodv;
  routing::DsdvParams dsdv;
  routing::DsrParams dsr;
  net::MacParams mac;
  net::EnergyParams energy;
  QualifierDist qualifier_dist = QualifierDist::kUniformPermutation;

  // ---- churn (future-work experiments, §8) ----
  // Legacy aliases for fault.churn_rate_per_hour / fault.mean_downtime_s;
  // kept for existing configs, folded into `fault` when it is untouched.
  double churn_death_rate_per_hour = 0.0;
  sim::SimTime churn_down_time = 120.0;  // how long a failed node stays down

  // ---- fault injection (src/fault: churn, blackouts, loss bursts) ----
  fault::FaultParams fault;
  // Cross-layer invariant sweep interval; 0 disables the checker entirely
  // (it is also swept at every fault boundary when enabled).
  double invariant_check_interval_s = 0.0;
  // Overlay-repair / orphan sampling cadence while faults are active.
  double fault_monitor_interval_s = 10.0;

  // ---- measurement ----
  double overlay_sample_interval_s = 300.0;  // overlay-graph metric samples
  double join_stagger_s = 2.0;               // servents join within [0, x)

  // ---- parallel execution (conservative sharded DES; sim/sharded.hpp) ----
  // sim_threads is pure execution: any value >= 1 produces bit-identical
  // results for a given shard count. sim_shards selects the MODEL — the
  // spatial decomposition and per-shard RNG streams — so changing it (or
  // letting it auto-derive differently) is a different deterministic
  // schedule, like changing the seed. 1 thread with the default shard
  // derivation (0) keeps the single-Simulator sequential path, byte-for-
  // byte identical to pre-parallel builds.
  std::size_t sim_threads = 1;
  // 0 = auto: 1 shard when sim_threads == 1 (the legacy path); otherwise a
  // population-scaled count (64 at >= 8192 nodes, else 8) independent of
  // sim_threads so thread sweeps compare the same model.
  std::size_t sim_shards = 0;

  /// The shard count actually used for this scenario (resolves the 0-auto
  /// rule above). 1 means sequential execution.
  std::size_t effective_sim_shards() const noexcept {
    if (sim_shards > 0) return sim_shards;
    if (sim_threads <= 1) return 1;
    return num_nodes >= 8192 ? 64 : 8;
  }

  /// Number of P2P members for the current node count.
  std::size_t num_members() const noexcept {
    const auto m = static_cast<std::size_t>(
        static_cast<double>(num_nodes) * p2p_fraction + 0.5);
    return m == 0 ? 1 : m;
  }

  /// Apply "key=value" overrides (keys listed in docs/parameters; unknown
  /// keys are reported via the return value). Returns empty string on
  /// success, else a description of the first problem.
  std::string apply(const util::Config& config);

  /// One-line summary for bench headers.
  std::string summary() const;
};

}  // namespace p2p::scenario

// One complete simulated world: build, run, collect.
//
// A SimulationRun owns every component of one world (simulator, network,
// routing agents, servents, content placement) — nothing is shared with
// other runs, so the experiment driver can execute runs on parallel
// threads without any synchronization.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "content/catalog.hpp"
#include "core/counters.hpp"
#include "core/servent.hpp"
#include "fault/injector.hpp"
#include "fault/invariants.hpp"
#include "graph/metrics.hpp"
#include "mobility/model.hpp"
#include "net/network.hpp"
#include "routing/flood.hpp"
#include "routing/service.hpp"
#include "scenario/parameters.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace p2p::scenario {

/// Per-file-rank query outcome aggregates for one run.
struct FileRankStats {
  std::uint64_t requests = 0;
  std::uint64_t answered = 0;       // requests with >= 1 answer
  std::uint64_t answers_total = 0;  // sum of answers over requests
  double sum_min_physical = 0.0;    // over answered requests w/ a distance
  std::uint64_t physical_samples = 0;
  double sum_min_p2p = 0.0;
  std::uint64_t p2p_samples = 0;

  double answers_per_request() const noexcept {
    return requests == 0 ? 0.0
                         : static_cast<double>(answers_total) /
                               static_cast<double>(requests);
  }
  double mean_min_physical() const noexcept {
    return physical_samples == 0
               ? 0.0
               : sum_min_physical / static_cast<double>(physical_samples);
  }
  double mean_min_p2p() const noexcept {
    return p2p_samples == 0 ? 0.0
                            : sum_min_p2p / static_cast<double>(p2p_samples);
  }
  double answered_fraction() const noexcept {
    return requests == 0 ? 0.0
                         : static_cast<double>(answered) /
                               static_cast<double>(requests);
  }
};

struct RunResult {
  std::size_t num_nodes = 0;
  std::size_t num_members = 0;

  /// Per-member message counters, in member order.
  std::vector<core::MessageCounters> counters;
  /// Per-file-rank query stats (index = rank - 1).
  std::vector<FileRankStats> per_file;

  // Network/energy totals.
  std::uint64_t frames_transmitted = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_lost = 0;
  double energy_consumed_j = 0.0;
  std::uint64_t events_processed = 0;
  std::size_t peak_queue_depth = 0;  // event-queue high-water mark (live)

  // Event-queue operation counters (sim::EventQueue::Stats). Fixed-seed
  // deterministic — the pop order, and hence every push/pop/cancel a run
  // performs, is a pure function of the parameters.
  // queue_peak_raw is the physical-storage high-water mark (tombstones
  // included, so it depends on purge timing, unlike the live
  // peak_queue_depth above).
  std::uint64_t queue_pushes = 0;
  std::uint64_t queue_pops = 0;
  std::uint64_t queue_tombstones_purged = 0;
  std::uint64_t queue_compactions = 0;
  std::uint64_t queue_ladder_spills = 0;
  std::uint64_t queue_ladder_rebuckets = 0;
  std::size_t queue_peak_raw = 0;

  // Routing totals (protocol-independent; see RoutingService::Telemetry).
  std::uint64_t routing_control_messages = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_dropped = 0;

  // Payload-pool accounting (net::PayloadPools::stats()): acquisitions
  // served, slab growths (allocations NOT avoided), and the high-water
  // mark of live payloads. Fixed-seed deterministic and thread-count
  // invariant — pools are per-run, never shared across runs or threads.
  std::uint64_t payload_acquires = 0;
  std::uint64_t payload_slab_allocs = 0;
  std::size_t payload_peak_live = 0;

  // Model-memory accounting (capacity-based, bytes), split by layer so
  // mega-scale telemetry can attribute growth: the network's dense
  // per-node arrays + spatial index + blackout ledger, the summed
  // routing-agent state (tables, caches, pending discoveries), and the
  // summed member-servent base state (handshake tables, connections,
  // duplicate caches). All first-touch allocated — growth must track what
  // the run actually did, not the population squared.
  std::size_t net_memory_bytes = 0;
  std::size_t routing_memory_bytes = 0;
  std::size_t servent_memory_bytes = 0;

  // Churn/fault accounting (all 0 when fault injection is disabled).
  std::uint64_t churn_deaths = 0;
  std::uint64_t churn_recoveries = 0;
  std::uint64_t link_blackouts = 0;
  std::uint64_t loss_bursts = 0;
  // Overlay repair under churn ("Figure C" family): time the live-member
  // overlay spent fragmented, how many disruptions were repaired, and the
  // mean time from fragmentation to repair (monitor-tick resolution).
  double overlay_disrupted_s = 0.0;
  std::uint64_t overlay_repairs = 0;
  double mean_repair_time_s = 0.0;
  // Live members that finished the run with zero references.
  std::size_t orphaned_servents = 0;
  // Cross-layer invariant checker (0 when disabled — and on healthy runs).
  std::uint64_t invariant_violations = 0;

  /// Fraction of completed requests that got >= 1 answer (query success
  /// rate; the churn experiments plot this against churn_rate).
  double query_success_rate() const noexcept {
    std::uint64_t requests = 0, answered = 0;
    for (const auto& f : per_file) {
      requests += f.requests;
      answered += f.answered;
    }
    return requests == 0 ? 0.0
                         : static_cast<double>(answered) /
                               static_cast<double>(requests);
  }

  // Overlay reconfiguration volume: connection (reference) set-ups and
  // tear-downs summed over all members — the cost the paper's algorithms
  // try to control.
  std::uint64_t connections_established = 0;
  std::uint64_t connections_closed = 0;

  // Overlay structure: periodic samples + final snapshot.
  std::vector<graph::SmallWorldMetrics> overlay_samples;
  graph::SmallWorldMetrics overlay_final;
  graph::SmallWorldMetrics physical_final;

  // Hybrid role census at the end (0 for other algorithms).
  std::size_t masters = 0;
  std::size_t slaves = 0;

  // Convenience extracts for the figure benches.
  std::vector<double> connect_received_per_member() const;
  std::vector<double> ping_received_per_member() const;
  std::vector<double> query_received_per_member() const;
};

class SimulationRun final : public core::QueryRecorder {
 public:
  explicit SimulationRun(const Parameters& params);
  ~SimulationRun() override;

  SimulationRun(const SimulationRun&) = delete;
  SimulationRun& operator=(const SimulationRun&) = delete;

  /// Build the world, simulate `params.duration_s` seconds, collect.
  RunResult run();

  /// QueryRecorder: every member reports completed requests here.
  void on_request_complete(core::FileId file, int answers,
                           int min_physical_hops, int min_p2p_hops) override;

  // Introspection for tests (valid after build(), which run() calls).
  void build();
  sim::Simulator& simulator() noexcept { return sim_; }
  net::Network& network() noexcept { return *network_; }
  core::Servent& servent(std::size_t member_index);
  std::size_t member_count() const noexcept { return members_.size(); }
  const content::Placement& placement() const noexcept { return *placement_; }

  /// Overlay graph over members: edge wherever at least one side holds a
  /// reference (references are usable one-way).
  graph::Graph overlay_graph() const;

  // ---- fault seams (also used as FaultInjector hooks) -------------------
  /// Kill `id` now: network down, routing/flood/dup-cache state dropped,
  /// servent (if a started member) silently loses all overlay state.
  void crash_node(net::NodeId id);
  /// Revive `id`: network up; a crashed member servent rejoins fresh.
  void recover_node(net::NodeId id);

  /// Non-null after build() when fault injection is enabled.
  const fault::FaultInjector* injector() const noexcept {
    return injector_.get();
  }
  /// Non-null after build() when invariant_check_interval_s > 0.
  fault::InvariantChecker* invariant_checker() noexcept {
    return checker_.get();
  }

 private:
  void sample_overlay();
  void fault_monitor_tick();
  RunResult collect();

  Parameters params_;
  sim::RngManager rngs_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<routing::RoutingService>> routing_;
  std::vector<std::unique_ptr<routing::FloodService>> flood_;
  std::vector<net::NodeId> members_;  // member index -> node id
  // Inverse of members_ (kInvalidNode for non-members), precomputed by
  // build() so overlay_graph() — called per monitor tick — does not
  // reallocate and refill an O(num_nodes) map on every call.
  std::vector<std::uint32_t> node_to_member_;
  std::vector<std::unique_ptr<core::Servent>> servents_;
  std::unique_ptr<content::Placement> placement_;
  std::vector<FileRankStats> per_file_;
  std::vector<graph::SmallWorldMetrics> overlay_samples_;

  // Fault machinery (constructed only when enabled — zero-cost otherwise).
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::InvariantChecker> checker_;
  std::vector<core::Servent*> servent_of_node_;  // nullptr for non-members
  std::vector<char> crashed_member_;  // member servent is down right now
  // Overlay-repair bookkeeping (fault monitor).
  bool overlay_fragmented_ = false;
  sim::SimTime fragmented_since_ = 0.0;
  double repair_time_total_ = 0.0;
  std::uint64_t overlay_repairs_ = 0;

  bool built_ = false;
};

}  // namespace p2p::scenario

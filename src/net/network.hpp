// The simulated wireless world: nodes, channel, and frame delivery.
//
// Communication is unit-disk: a frame transmitted by node A reaches every
// live node within `range` metres of A (or just the addressed neighbor for
// link-layer unicast). Delivery is delayed by airtime + propagation +
// random defer jitter (see mac.hpp), and a node's own transmissions
// serialize, approximating a half-duplex radio.
//
// Positions come from a dense per-node table of mobility legs (see
// mobility::Leg): a position query is one interpolation, and the node's
// model is asked for a new leg only when the cached one expires. Candidate
// receivers come from a NeighborIndex rebuilt in full from that table once
// per staleness window (`index_tolerance_s`); every candidate is then
// range-checked against its fresh position.
//
// Network is strictly below routing: it never inspects payloads, it only
// moves FramePayload blobs between nodes and charges energy.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geo/vec2.hpp"
#include "graph/graph.hpp"
#include "mobility/model.hpp"
#include "net/energy.hpp"
#include "net/mac.hpp"
#include "net/neighbor_index.hpp"
#include "net/payload.hpp"
#include "net/types.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/flat_map.hpp"

namespace p2p::net {

struct NetworkParams {
  geo::Region region{100.0, 100.0};
  double range = 10.0;             // paper Table 2: 10 m transmission range
  MacParams mac;
  double index_tolerance_s = 0.25; // spatial-index staleness bound
  double max_speed_hint = 1.0;     // upper bound on any node's speed (m/s)
};

class Network {
 public:
  Network(sim::Simulator& simulator, const NetworkParams& params,
          sim::RngStream mac_rng);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Add a node; ids are dense and assigned in call order.
  NodeId add_node(std::unique_ptr<mobility::MobilityModel> mobility,
                  const EnergyParams& energy = {});

  std::size_t size() const noexcept { return nodes_.size(); }

  /// Attach a frame listener; every frame the node receives is fanned out
  /// to all listeners in attach order. Listener must outlive the Network.
  void attach_listener(NodeId id, LinkListener* listener);

  /// Transmit to all in-range neighbors. No-op if the sender is down.
  void broadcast(NodeId sender, FramePayloadPtr payload, std::size_t bytes);

  /// Transmit to one neighbor; silently dropped if out of range at send
  /// time (the sender learns nothing — real radios don't either; reliability
  /// is the routing layer's problem).
  void unicast(NodeId sender, NodeId neighbor, FramePayloadPtr payload,
               std::size_t bytes);

  /// Current position of `id`: the node's cached mobility leg evaluated
  /// at now (see mobility::Leg). The virtual model call happens only when
  /// the leg has expired, so range filters, gray-zone distances and
  /// snapshots cost one interpolation each.
  geo::Vec2 position_of(NodeId id) {
    P2P_ASSERT(id < legs_.size());
    return position_at(id, sim_->now());
  }
  bool in_range(NodeId a, NodeId b);
  /// Exact in-range receiver set for a transmission from `sender` now:
  /// live nodes within range at fresh positions, in the order broadcast()
  /// delivers to them.
  void receivers_of(NodeId sender, std::vector<NodeId>* out);

  /// Physical connectivity graph over live nodes at the current time.
  /// adjacency[i] lists i's neighbors; down nodes get empty lists.
  std::vector<std::vector<NodeId>> adjacency_snapshot();
  /// Buffer-reusing overload for callers that snapshot repeatedly
  /// (reconfiguration rounds): inner vectors keep their capacity across
  /// calls, and fresh ones are reserved from the previous round's mean
  /// degree.
  void adjacency_snapshot(std::vector<std::vector<NodeId>>* out);

  /// Always 0: the adjacency memo it counted is gone. Kept only because
  /// perfbench reports it as `net.adjacency_builds`; both go together in
  /// the next change to the benchmark.
  std::uint64_t adjacency_builds() const noexcept { return 0; }

  /// Physical hop distance between two nodes: a BFS directly over the
  /// spatial grid that explores only the ball around `a` and early-exits
  /// at `b`, instead of materializing the full adjacency for a single
  /// distance. Network-owned scratch — no per-query allocations.
  int physical_hop_distance(NodeId a, NodeId b);

  EnergyModel& energy(NodeId id);

  /// Down = battery empty or administratively failed. Answered from a
  /// dense byte array (kept in sync at the three points liveness can
  /// change: add_node, set_failed, and energy consumption inside the
  /// delivery paths) so the candidate-filter loops never touch the cold
  /// NodeState structs.
  bool alive(NodeId id) const noexcept {
    P2P_ASSERT(id < down_.size());
    return down_[id] == 0;
  }
  /// Administrative kill/revive (churn experiments).
  void set_failed(NodeId id, bool failed);

  // ---- fault injection (src/fault). All of these are pay-for-what-you-
  // use: with no blackouts and no burst the hot paths below take exactly
  // the same branches and RNG draws as before the fault layer existed. ----

  /// Suppress the link between `a` and `b` (both directions) until `until`.
  /// Extends an existing blackout if one is active.
  void set_link_blackout(NodeId a, NodeId b, sim::SimTime until);
  /// Is the (a, b) link currently blacked out?
  bool link_blacked_out(NodeId a, NodeId b) const;
  /// Gilbert-Elliott bad state: extra loss probability composed with the
  /// base MAC loss (p_eff = 1 - (1-p_base)(1-p_burst)); 0 restores the
  /// good state.
  void set_burst_loss(double p) noexcept {
    burst_loss_ = p;
    if (p > 0.0) faults_active_ = true;
  }
  double burst_loss() const noexcept { return burst_loss_; }

  /// Single gate for the whole fault subsystem: true only while a loss
  /// burst is in force or some link blackout can still be active. The
  /// delivery loops test this once per transmission; while it is false
  /// they execute the exact pre-fault fast path (no per-candidate blackout
  /// lookup, no burst compose). Self-clearing: once every blackout end
  /// time has passed and the burst is off, the flag drops back to false.
  bool faults_active() noexcept {
    if (!faults_active_) return false;
    if (burst_loss_ > 0.0 || blackout_horizon_ > sim_->now()) return true;
    faults_active_ = false;
    return false;
  }

  /// Can a frame from `a` currently reach `b`? Liveness + range + blackout
  /// in one query — the link-break predicate the routing layer should use
  /// (a dead-but-in-range next hop is just as gone as an out-of-range one).
  bool link_usable(NodeId a, NodeId b);

  sim::Simulator& simulator() noexcept { return *sim_; }
  const NetworkParams& params() const noexcept { return params_; }

  /// Per-run payload pools: every message this world sends is acquired
  /// here (see net/payload.hpp). Pools are holder-counted, so frames still
  /// queued in the simulator keep their pools alive past ~Network.
  PayloadPools& pools() noexcept { return pools_; }
  const PayloadPools& pools() const noexcept { return pools_; }
  PayloadPools::Stats pool_stats() const noexcept { return pools_.stats(); }

  /// Attach a link-layer event observer; nullptr detaches. There is one
  /// slot, so attaching over another observer is a bug (it would silently
  /// stop that one): an observer that takes over the slot detaches the
  /// current one first and forwards to it (see trace::Writer).
  void set_observer(NetObserver* observer) noexcept {
    P2P_ASSERT_MSG(observer == nullptr || observer_ == nullptr,
                   "set_observer would silently detach another observer");
    observer_ = observer;
  }
  NetObserver* observer() const noexcept { return observer_; }

  // Telemetry.
  std::uint64_t frames_transmitted() const noexcept { return frames_tx_; }
  std::uint64_t frames_delivered() const noexcept { return frames_rx_; }
  std::uint64_t frames_lost() const noexcept { return frames_lost_; }

  /// Approximate bytes held by the network layer: dense per-node arrays,
  /// the spatial index, adjacency/BFS scratch, broadcast batch pools, and
  /// the blackout ledger. Everything here is O(n) or O(active faults) —
  /// the mega-scale telemetry sums it per run to pin that down.
  std::size_t memory_bytes() const noexcept;

 private:
  // Cold per-node state: touched on add/attach, at transmit time (energy,
  // tx serialization), and at delivery fan-out. The fields the candidate
  // loops read per neighbor — current mobility leg and liveness — are
  // split into the dense legs_/down_ arrays below (structure-of-arrays),
  // so a range filter over k candidates never touches a NodeState or a
  // mobility model.
  struct NodeState {
    std::unique_ptr<mobility::MobilityModel> mobility;
    EnergyModel energy;
    std::vector<LinkListener*> listeners;
    bool failed = false;
    sim::SimTime next_free_tx = 0.0;
  };

  /// Position of `id` at `t` from its leg, fetching the next leg from the
  /// model only once `t` has run past the cached one. `t` must be
  /// non-decreasing per node (the mobility contract).
  geo::Vec2 position_at(NodeId id, sim::SimTime t) {
    mobility::Leg& leg = legs_[id];
    if (t >= leg.end) leg = nodes_[id].mobility->leg_at(t);
    return leg.at(t);
  }
  /// Rebuild the spatial index from every node's position at now() if it
  /// is stale there.
  void refresh_index();
  void deliver(NodeId receiver, const Frame& frame);
  /// Deliver one shared frame to every receiver in the batch, in order,
  /// then return the receiver list to the pool.
  void deliver_batch(std::uint32_t batch, const Frame& frame);
  std::uint32_t acquire_batch();
  void release_batch(std::uint32_t batch);
  /// Start time of the next transmission by `sender` (jitter + half-duplex
  /// serialization); advances the node's busy horizon.
  sim::SimTime schedule_tx(NodeState& node, double duration);

  /// Recompute down_[id] from the authoritative NodeState (failed flag +
  /// battery); called wherever either input can change.
  void refresh_down(NodeId id) noexcept {
    down_[id] = static_cast<std::uint8_t>(nodes_[id].failed ||
                                          !nodes_[id].energy.alive());
  }

  sim::Simulator* sim_;
  NetworkParams params_;
  sim::RngStream mac_rng_;
  std::vector<NodeState> nodes_;
  std::vector<mobility::Leg> legs_;  // hot: current mobility leg per node
  std::vector<std::uint8_t> down_;   // hot: 1 = failed or battery dead
  NeighborIndex index_;
  std::vector<geo::Vec2> scratch_positions_;
  std::vector<NodeId> scratch_candidates_;
  // Recycled receiver lists for in-flight broadcast arrival events. A
  // batch index stays stable while the pool vector grows (nested
  // broadcasts from a delivery handler), so events capture the index,
  // never a reference.
  std::vector<std::vector<NodeId>> batch_pool_;
  std::vector<std::uint32_t> free_batches_;
  std::size_t degree_hint_ = 0;  // mean degree seen by the last snapshot

  PayloadPools pools_;
  // Grid-BFS scratch for physical_hop_distance(): generation-stamped
  // visited marks plus a flat frontier, and a dedicated candidate buffer
  // (scratch_candidates_ is live inside broadcast(), which can be on the
  // stack when a distance is queried).
  std::vector<std::uint64_t> grid_stamp_;
  std::vector<int> grid_dist_;
  std::vector<NodeId> grid_queue_;
  std::vector<NodeId> grid_cand_;
  std::uint64_t grid_gen_ = 0;

  /// One channel-level draw (base loss + gray zone) — the fault-free fast
  /// path; callers check faults_active() and take channel_lost_faulted()
  /// instead while a burst may be in force.
  bool channel_lost(const geo::Vec2& from, const geo::Vec2& to);
  /// Same draw with the Gilbert-Elliott burst composed into the base loss.
  /// Identical RNG draw order to channel_lost() when burst_loss_ == 0.
  bool channel_lost_faulted(const geo::Vec2& from, const geo::Vec2& to);

  /// Key of the unordered link {a,b} in the blackout ledger (lo in the
  /// high word so keys are unique per pair).
  static std::uint64_t link_key(NodeId a, NodeId b) noexcept {
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  /// Drop ledger entries whose end time has passed; re-arms the purge
  /// threshold at twice the surviving count.
  void purge_expired_blackouts();

  // Blackout ledger: end-of-blackout time per unordered node pair, keyed
  // by link_key; an absent entry means "never blacked out" (find returns
  // nullptr, equivalent to the old 0.0 sentinel). O(links actually
  // suppressed) — never O(n^2) — so mega-scale runs with localized faults
  // stay cheap. Fault-free runs pay neither memory nor lookups
  // (faults_active() gates every consultation). Expired entries need no
  // eager eviction (the end-time comparison against now() is the whole
  // query); they are swept opportunistically when the ledger next grows
  // past the purge threshold, which bounds residency at O(peak active).
  util::FlatMap<std::uint64_t, sim::SimTime, ~0ULL> blackout_map_;
  std::vector<std::uint64_t> blackout_scratch_;  // purge staging
  std::size_t blackout_purge_at_ = 64;
  double burst_loss_ = 0.0;
  // Latest end time over every blackout ever set (monotone); with the
  // burst off, faults_active() compares it against now() to decide when
  // the fault gate can drop.
  sim::SimTime blackout_horizon_ = 0.0;
  bool faults_active_ = false;

  NetObserver* observer_ = nullptr;
  std::uint64_t frames_tx_ = 0;
  std::uint64_t frames_rx_ = 0;
  std::uint64_t frames_lost_ = 0;
};

}  // namespace p2p::net

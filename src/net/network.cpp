#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace p2p::net {

Network::Network(sim::Simulator& simulator, const NetworkParams& params,
                 sim::RngStream mac_rng)
    : sim_(&simulator),
      params_(params),
      mac_rng_(std::move(mac_rng)),
      index_(params.region, params.range, params.index_tolerance_s,
             params.max_speed_hint) {}

NodeId Network::add_node(std::unique_ptr<mobility::MobilityModel> mobility,
                         const EnergyParams& energy) {
  P2P_ASSERT(mobility != nullptr);
  NodeState state;
  state.mobility = std::move(mobility);
  state.energy = EnergyModel(energy);
  nodes_.push_back(std::move(state));
  legs_.emplace_back();  // empty: the first query fetches the real leg
  down_.push_back(0);
  const auto id = static_cast<NodeId>(nodes_.size() - 1);
  refresh_down(id);  // a zero-capacity battery is dead on arrival
  ++liveness_epoch_;  // a new node invalidates any shared adjacency memo
  return id;
}

void Network::attach_listener(NodeId id, LinkListener* listener) {
  P2P_ASSERT(id < nodes_.size());
  P2P_ASSERT(listener != nullptr);
  nodes_[id].listeners.push_back(listener);
}

void Network::set_failed(NodeId id, bool failed) {
  P2P_ASSERT(id < nodes_.size());
  nodes_[id].failed = failed;
  refresh_down(id);
}

void Network::purge_expired_blackouts() {
  const sim::SimTime now = sim_->now();
  blackout_scratch_.clear();
  blackout_map_.for_each([&](std::uint64_t link, sim::SimTime end) {
    if (end <= now) blackout_scratch_.push_back(link);
  });
  for (const std::uint64_t link : blackout_scratch_) {
    blackout_map_.erase(link);
  }
  blackout_purge_at_ = std::max<std::size_t>(64, blackout_map_.size() * 2);
}

void Network::set_link_blackout(NodeId a, NodeId b, sim::SimTime until) {
  P2P_ASSERT(a < nodes_.size() && b < nodes_.size() && a != b);
  if (blackout_map_.size() >= blackout_purge_at_) purge_expired_blackouts();
  sim::SimTime& end = blackout_map_.get_or_insert(link_key(a, b));
  if (until > end) end = until;
  if (until > blackout_horizon_) blackout_horizon_ = until;
  faults_active_ = true;
}

bool Network::link_blacked_out(NodeId a, NodeId b) const {
  // Ledger holds only links that were actually suppressed; absent means
  // never blacked out.
  const sim::SimTime* end = blackout_map_.find(link_key(a, b));
  return end != nullptr && *end > sim_->now();
}

bool Network::link_usable(NodeId a, NodeId b) {
  if (!alive(a) || !alive(b)) return false;
  if (!in_range(a, b)) return false;
  return !(faults_active() && link_blacked_out(a, b));
}

bool Network::channel_lost(const geo::Vec2& from, const geo::Vec2& to) {
  const double loss_p = params_.mac.loss_probability;
  bool lost = loss_p > 0.0 && mac_rng_.chance(loss_p);
  if (!lost && params_.mac.gray_zone_fraction > 0.0) {
    const double dist = geo::distance(from, to);
    lost = !mac_rng_.chance(
        gray_zone_delivery_probability(params_.mac, dist, params_.range));
  }
  return lost;
}

bool Network::channel_lost_faulted(const geo::Vec2& from,
                                   const geo::Vec2& to) {
  double loss_p = params_.mac.loss_probability;
  if (burst_loss_ > 0.0) {
    // Gilbert-Elliott bad state: compose with the base loss. With the
    // burst inactive this is exactly the base probability, including the
    // draw-only-when-positive fast path, so faulted-but-burst-free runs
    // stay bit-identical.
    loss_p = 1.0 - (1.0 - loss_p) * (1.0 - burst_loss_);
  }
  bool lost = loss_p > 0.0 && mac_rng_.chance(loss_p);
  if (!lost && params_.mac.gray_zone_fraction > 0.0) {
    const double dist = geo::distance(from, to);
    lost = !mac_rng_.chance(
        gray_zone_delivery_probability(params_.mac, dist, params_.range));
  }
  return lost;
}

EnergyModel& Network::energy(NodeId id) {
  P2P_ASSERT(id < nodes_.size());
  return nodes_[id].energy;
}

const EnergyModel& Network::energy(NodeId id) const {
  P2P_ASSERT(id < nodes_.size());
  return nodes_[id].energy;
}

bool Network::in_range(NodeId a, NodeId b) {
  P2P_ASSERT(a < nodes_.size() && b < nodes_.size());
  if (a == b) return true;
  const double r2 = params_.range * params_.range;
  return geo::distance2(position_of(a), position_of(b)) <= r2;
}

void Network::refresh_index() {
  // Probe first: the O(n) position pass is paid only when the index
  // actually rebuilds.
  const sim::SimTime t = sim_->now();
  if (index_.is_fresh(t, nodes_.size())) return;
  scratch_positions_.resize(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    scratch_positions_[i] = position_at(i, t);
  }
  index_.refresh(t, scratch_positions_);
}

void Network::receivers_of(NodeId sender, std::vector<NodeId>* out) {
  refresh_index();
  const geo::Vec2 sp = position_of(sender);  // sampled once, reused below
  index_.candidates_near(sp, sim_->now(), &scratch_candidates_);
  out->clear();
  const double r2 = params_.range * params_.range;
  for (const NodeId cand : scratch_candidates_) {
    if (cand == sender || !alive(cand)) continue;
    if (geo::distance2(sp, position_of(cand)) <= r2) {
      out->push_back(cand);
    }
  }
}

void Network::neighbors_of(NodeId id, std::vector<NodeId>* out) {
  P2P_ASSERT(id < nodes_.size());
  P2P_ASSERT(out != nullptr);
  receivers_of(id, out);
}

std::vector<std::vector<NodeId>> Network::adjacency_snapshot() {
  std::vector<std::vector<NodeId>> adj;
  adjacency_snapshot(&adj);
  return adj;
}

void Network::adjacency_snapshot(std::vector<std::vector<NodeId>>* out) {
  P2P_ASSERT(out != nullptr);
  out->resize(nodes_.size());
  refresh_index();
  // Force an exact snapshot: every position fresh at this instant.
  scratch_positions_.resize(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    scratch_positions_[i] = position_of(i);
  }
  const double r2 = params_.range * params_.range;
  std::size_t half_edges = 0;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    auto& row = (*out)[i];
    row.clear();  // keeps capacity from the previous snapshot
    if (row.capacity() == 0 && degree_hint_ > 0) row.reserve(degree_hint_);
  }
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (!alive(i)) continue;
    index_.candidates_near(scratch_positions_[i], sim_->now(),
                           &scratch_candidates_);
    for (const NodeId j : scratch_candidates_) {
      if (j <= i || !alive(j)) continue;
      if (geo::distance2(scratch_positions_[i], scratch_positions_[j]) <= r2) {
        (*out)[i].push_back(j);
        (*out)[j].push_back(i);
        half_edges += 2;
      }
    }
  }
  if (!nodes_.empty()) {
    // Round up: under-reserving costs a realloc, over-reserving a few slots.
    degree_hint_ = (half_edges + nodes_.size() - 1) / nodes_.size() + 1;
  }
}

const std::vector<std::vector<NodeId>>& Network::shared_adjacency() {
  const sim::SimTime now = sim_->now();
  if (shared_adj_time_ == now && shared_adj_epoch_ == liveness_epoch_) {
    return shared_adj_;
  }
  adjacency_snapshot(&shared_adj_);
  shared_adj_time_ = now;
  shared_adj_epoch_ = liveness_epoch_;
  ++adjacency_builds_;
  return shared_adj_;
}

int Network::physical_hop_distance(NodeId a, NodeId b) {
  // If the memoized snapshot is already fresh (e.g. several query hits at
  // the same instant), a BFS over it is cheapest — no rebuild happens.
  if (shared_adj_time_ == sim_->now() && shared_adj_epoch_ == liveness_epoch_) {
    return graph::bfs_distance(shared_adj_, a, b, bfs_scratch_);
  }
  // Otherwise BFS directly over the spatial grid: same edge relation as
  // adjacency_snapshot() (alive endpoints, fresh positions within range,
  // candidates_near being a guaranteed superset within the drift margin),
  // and the BFS distance is unique, so the result is identical — without
  // paying O(n * k) to materialize every row for one source/target pair.
  const std::size_t n = nodes_.size();
  if (a >= n || b >= n) return graph::kUnreachable;
  if (a == b) return 0;
  if (!alive(a) || !alive(b)) return graph::kUnreachable;
  refresh_index();
  if (grid_stamp_.size() < n) {
    grid_stamp_.resize(n, 0);
    grid_dist_.resize(n);
  }
  const std::uint64_t gen = ++grid_gen_;
  const double r2 = params_.range * params_.range;
  grid_queue_.clear();
  grid_queue_.push_back(a);
  grid_stamp_[a] = gen;
  grid_dist_[a] = 0;
  for (std::size_t head = 0; head < grid_queue_.size(); ++head) {
    const NodeId u = grid_queue_[head];
    const int du = grid_dist_[u];
    const geo::Vec2 up = position_of(u);
    index_.candidates_near(up, sim_->now(), &grid_cand_);
    for (const NodeId v : grid_cand_) {
      if (grid_stamp_[v] == gen || v == u || !alive(v)) continue;
      if (geo::distance2(up, position_of(v)) > r2) continue;
      if (v == b) return du + 1;
      grid_stamp_[v] = gen;
      grid_dist_[v] = du + 1;
      grid_queue_.push_back(v);
    }
  }
  return graph::kUnreachable;
}

sim::SimTime Network::schedule_tx(NodeState& node, double duration) {
  const sim::SimTime defer = mac_rng_.uniform(0.0, params_.mac.jitter_max_s);
  sim::SimTime start = sim_->now() + defer;
  if (start < node.next_free_tx) start = node.next_free_tx;
  node.next_free_tx = start + duration;
  return start;
}

void Network::deliver(NodeId receiver, const Frame& frame) {
  NodeState& node = nodes_[receiver];
  if (!alive(receiver)) {
    if (observer_ != nullptr) {
      observer_->on_drop(sim_->now(), frame.sender, receiver, frame.size_bytes);
    }
    return;
  }
  node.energy.consume_rx(frame.size_bytes);
  refresh_down(receiver);  // rx cost may have emptied the battery
  ++frames_rx_;
  if (observer_ != nullptr) {
    observer_->on_deliver(sim_->now(), receiver, frame.sender, frame.size_bytes);
  }
  for (LinkListener* listener : node.listeners) listener->on_frame(frame);
}

std::uint32_t Network::acquire_batch() {
  if (!free_batches_.empty()) {
    const std::uint32_t batch = free_batches_.back();
    free_batches_.pop_back();
    return batch;
  }
  batch_pool_.emplace_back();
  return static_cast<std::uint32_t>(batch_pool_.size() - 1);
}

void Network::release_batch(std::uint32_t batch) {
  batch_pool_[batch].clear();  // keeps capacity for the next storm
  free_batches_.push_back(batch);
}

void Network::deliver_batch(std::uint32_t batch, const Frame& frame) {
  // Receivers were filtered (range, liveness, channel) at transmit time;
  // liveness is re-checked per delivery inside deliver() because an
  // earlier delivery in this very batch can kill a later receiver.
  // Index on every access: a delivery handler may broadcast, growing the
  // pool vector (a different batch index, but possibly reallocating).
  for (std::size_t i = 0; i < batch_pool_[batch].size(); ++i) {
    deliver(batch_pool_[batch][i], frame);
  }
  release_batch(batch);
}

void Network::broadcast(NodeId sender, FramePayloadPtr payload,
                        std::size_t bytes) {
  P2P_ASSERT(sender < nodes_.size());
  if (!alive(sender)) return;
  NodeState& node = nodes_[sender];
  node.energy.consume_tx(bytes);
  refresh_down(sender);  // tx cost may have emptied the battery
  ++frames_tx_;
  if (observer_ != nullptr) {
    observer_->on_transmit(sim_->now(), sender, kBroadcast, bytes);
  }

  refresh_index();
  const geo::Vec2 sender_pos = position_of(sender);
  index_.candidates_near(sender_pos, sim_->now(), &scratch_candidates_);
  const double duration = tx_duration(params_.mac, bytes);
  const sim::SimTime start = schedule_tx(node, duration);  // jitter draw
  const sim::SimTime arrival = start + duration + params_.mac.propagation_s;

  // One pass over the spatial-index candidates: range filter + channel
  // draws, in candidate order. This is the exact receiver order — and the
  // exact mac_rng_ draw order — the per-receiver-event baseline used, so
  // runs stay bit-identical (asserted by Network.BatchedBroadcastMatches*
  // and the golden fig07 test).
  const double r2 = params_.range * params_.range;
  // One gate test per transmission: with no active blackout and no burst
  // the loop below is the exact pre-fault fast path (no per-candidate
  // blackout lookup, no burst compose in the channel draw).
  const bool faulted = faults_active();
  const std::uint32_t batch = acquire_batch();
  for (const NodeId cand : scratch_candidates_) {
    if (cand == sender || !alive(cand)) continue;
    const geo::Vec2 rp = position_of(cand);
    if (geo::distance2(sender_pos, rp) > r2) continue;
    // A blacked-out link behaves like out-of-range: silently skipped, no
    // channel draws (keeps draw order fault-free-identical).
    if (faulted && link_blacked_out(sender, cand)) continue;
    const bool lost = faulted ? channel_lost_faulted(sender_pos, rp)
                              : channel_lost(sender_pos, rp);
    if (lost) {
      ++frames_lost_;
      if (observer_ != nullptr) {
        observer_->on_drop(sim_->now(), sender, cand, bytes);
      }
      continue;
    }
    batch_pool_[batch].push_back(cand);
  }
  if (batch_pool_[batch].empty()) {
    release_batch(batch);
    return;
  }

  // ONE arrival event per transmission, carrying the surviving receiver
  // list by pool index and the frame by move: no per-receiver closure,
  // no payload refcount churn. Survivors are delivered in receiver order,
  // which equals the old contiguous FIFO-tied per-receiver event order.
  Frame frame{sender, kBroadcast, bytes, std::move(payload)};
  sim_->at(arrival, [this, batch, frame = std::move(frame)] {
    deliver_batch(batch, frame);
  });
}

void Network::unicast(NodeId sender, NodeId neighbor, FramePayloadPtr payload,
                      std::size_t bytes) {
  P2P_ASSERT(sender < nodes_.size());
  P2P_ASSERT(neighbor < nodes_.size());
  if (!alive(sender)) return;
  NodeState& node = nodes_[sender];
  node.energy.consume_tx(bytes);
  refresh_down(sender);  // tx cost may have emptied the battery
  ++frames_tx_;
  if (observer_ != nullptr) {
    observer_->on_transmit(sim_->now(), sender, neighbor, bytes);
  }

  const bool faulted = faults_active();
  if (!alive(neighbor) || !in_range(sender, neighbor) ||
      (faulted && link_blacked_out(sender, neighbor))) {
    ++frames_lost_;
    if (observer_ != nullptr) {
      observer_->on_drop(sim_->now(), sender, neighbor, bytes);
    }
    return;
  }
  const bool lost =
      faulted ? channel_lost_faulted(position_of(sender), position_of(neighbor))
              : channel_lost(position_of(sender), position_of(neighbor));
  if (lost) {
    ++frames_lost_;
    if (observer_ != nullptr) {
      observer_->on_drop(sim_->now(), sender, neighbor, bytes);
    }
    return;
  }
  const double duration = tx_duration(params_.mac, bytes);
  const sim::SimTime start = schedule_tx(node, duration);
  const sim::SimTime arrival = start + duration + params_.mac.propagation_s;
  Frame frame{sender, neighbor, bytes, std::move(payload)};
  sim_->at(arrival, [this, neighbor, frame = std::move(frame)] {
    deliver(neighbor, frame);
  });
}

std::size_t Network::memory_bytes() const noexcept {
  std::size_t bytes = nodes_.capacity() * sizeof(NodeState) +
                      legs_.capacity() * sizeof(mobility::Leg) +
                      down_.capacity() * sizeof(std::uint8_t) +
                      index_.memory_bytes() +
                      scratch_positions_.capacity() * sizeof(geo::Vec2) +
                      scratch_candidates_.capacity() * sizeof(NodeId) +
                      free_batches_.capacity() * sizeof(std::uint32_t) +
                      grid_stamp_.capacity() * sizeof(std::uint64_t) +
                      grid_dist_.capacity() * sizeof(int) +
                      grid_queue_.capacity() * sizeof(NodeId) +
                      grid_cand_.capacity() * sizeof(NodeId) +
                      blackout_map_.memory_bytes() +
                      blackout_scratch_.capacity() * sizeof(std::uint64_t);
  bytes += batch_pool_.capacity() * sizeof(batch_pool_[0]);
  for (const auto& batch : batch_pool_) {
    bytes += batch.capacity() * sizeof(NodeId);
  }
  bytes += shared_adj_.capacity() * sizeof(shared_adj_[0]);
  for (const auto& row : shared_adj_) {
    bytes += row.capacity() * sizeof(NodeId);
  }
  for (const auto& node : nodes_) {
    bytes += node.listeners.capacity() * sizeof(LinkListener*);
  }
  return bytes;
}

}  // namespace p2p::net

// The Hybrid algorithm (paper §6.2) — heterogeneous networks.
//
// Every peer carries a *qualifier* (battery, CPU, ... — any total order on
// capability). Peers self-organize into subnets of one master and up to
// MAXNSLAVES slaves; slaves talk only to their master, masters connect to
// each other with the Regular algorithm, forming the hybrid overlay.
//
// States: INITIAL -> (capture exchange) -> SLAVE or MASTER, with RESERVED
// as the transition while a slave candidate waits for its master's accept.
// Reconfiguration: a master with no slaves for MAXTIMERMASTER reverts to
// INITIAL ("could potentially be another peer slave"); a slave too far
// from its master (MAXDIST check on pongs) closes the link and restarts.
#pragma once

#include <map>

#include "core/progressive.hpp"
#include "core/servent.hpp"

namespace p2p::core {

enum class HybridState : std::uint8_t { kInitial, kMaster, kSlave, kReserved };

class HybridServent final : public Servent {
 public:
  HybridServent(const ServentContext& ctx, const P2pParams& params,
                sim::RngStream rng, std::uint32_t qualifier)
      : Servent(ctx, params, std::move(rng)),
        qualifier_(qualifier),
        search_(this->params()) {}

  AlgorithmKind algorithm() const noexcept override {
    return AlgorithmKind::kHybrid;
  }

  HybridState state() const noexcept { return state_; }
  std::uint32_t qualifier() const noexcept { return qualifier_; }
  std::size_t slave_count() const { return conns().count(ConnKind::kSlave); }

 protected:
  void on_start() override;
  void handle_flood(NodeId origin, const P2pMessage& msg, int hops) override;
  void handle_control(NodeId src, const P2pMessage& msg, int hops) override;
  void on_connection_established(Connection& conn) override;
  void on_connection_closed(NodeId peer, ConnKind kind,
                            CloseReason reason) override;
  void on_request_failed(NodeId peer, ConnKind kind) override;
  bool can_accept(NodeId from, ConnKind kind) const override;
  bool can_initiate(ConnKind kind) const override;
  void on_crashed() override;

 private:
  /// Total order on capability; node id breaks qualifier ties.
  bool outranks(std::uint32_t their_q, NodeId their_id) const noexcept {
    if (qualifier_ != their_q) return qualifier_ > their_q;
    return self() > their_id;
  }

  void schedule_tick(sim::SimTime delay);
  void tick();          // dispatches on state
  void initial_tick();  // capture cycle (fig. 4, INITIAL case)
  void master_tick();   // Regular search restricted to masters

  void become_master();
  void revert_to_initial();

  void handle_capture(NodeId src, std::uint32_t their_qualifier);
  void handle_slave_request(NodeId src, std::uint32_t their_qualifier);
  void handle_slave_accept(NodeId src);
  void handle_slave_confirm(NodeId src);
  void handle_slave_reject(NodeId src);

  void arm_no_slave_watchdog();

  std::uint32_t qualifier_;
  HybridState state_ = HybridState::kInitial;
  ProgressiveSearch search_;
  sim::EventId tick_event_ = sim::kInvalidEventId;

  // RESERVED bookkeeping (slave candidate side).
  NodeId master_candidate_ = net::kInvalidNode;
  sim::EventId reserve_timeout_ = sim::kInvalidEventId;

  // Master side: slots promised but not yet confirmed.
  std::map<NodeId, sim::EventId> slave_reservations_;
  sim::EventId no_slave_event_ = sim::kInvalidEventId;

  // Master-master probes in flight (probe_id -> expiry).
  std::map<std::uint64_t, sim::SimTime> master_probes_;
};

}  // namespace p2p::core

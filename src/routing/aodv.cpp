#include "routing/aodv.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace p2p::routing {

namespace {
constexpr const char* kTag = "aodv";
}

AodvAgent::AodvAgent(sim::Simulator& simulator, net::Network& network,
                     NodeId self, const AodvParams& params)
    : sim_(&simulator),
      net_(&network),
      self_(self),
      params_(params),
      rreq_seen_(params.rreq_id_cache_ttl) {
  net_->attach_listener(self_, this);
}

AodvAgent::~AodvAgent() {
  for (auto& [dst, pending] : pending_) {
    if (pending.timeout != sim::kInvalidEventId) sim_->cancel(pending.timeout);
  }
}

void AodvAgent::send(NodeId dst, AppPayloadPtr app) {
  P2P_ASSERT(dst != self_);
  ++stats_.data_originated;
  if (Route* route = table_.find_active(dst, sim_->now())) {
    DataMsg data;
    data.src = self_;
    data.dst = dst;
    data.hops_traveled = 0;
    data.app = std::move(app);
    // Using the route keeps it (and the next hop's entry) alive.
    table_.refresh(dst, sim_->now() + params_.active_route_timeout);
    table_.refresh(route->next_hop, sim_->now() + params_.active_route_timeout);
    if (!net_->link_usable(self_, route->next_hop)) {
      handle_link_break(route->next_hop);
      // Fall through to discovery with the packet queued.
      auto& pending = pending_[dst];
      pending.queue.push_back(std::move(data.app));
      if (pending.timeout == sim::kInvalidEventId) start_discovery(dst);
      return;
    }
    const std::size_t bytes = data_bytes(data);
    net_->unicast(self_, route->next_hop,
                  net_->pools().make_from(std::move(data)), bytes);
    return;
  }
  auto& pending = pending_[dst];
  if (pending.queue.size() >= params_.send_queue_limit) {
    pending.queue.pop_front();  // drop-oldest
    ++stats_.data_dropped;
  }
  pending.queue.push_back(std::move(app));
  if (pending.timeout == sim::kInvalidEventId) start_discovery(dst);
}

void AodvAgent::start_discovery(NodeId dst) {
  auto& pending = pending_[dst];
  pending.retries_left = params_.rreq_retries;
  pending.last_ttl = params_.ttl_start;
  send_rreq(dst, pending.last_ttl);
}

void AodvAgent::send_rreq(NodeId dst, std::uint8_t ttl) {
  ++own_seq_;  // RFC 3561 §6.1: increment before originating a RREQ
  Rreq rreq;
  rreq.origin = self_;
  rreq.origin_seq = own_seq_;
  rreq.bcast_id = next_bcast_id_++;
  rreq.dst = dst;
  if (const Route* known = table_.find(dst); known != nullptr && known->seq_valid) {
    rreq.dst_seq = known->dst_seq;
    rreq.dst_seq_valid = true;
  }
  rreq.hop_count = 0;
  rreq.ttl = ttl;
  rreq_seen_.insert(self_, rreq.bcast_id, sim_->now());
  ++stats_.rreq_originated;
  net_->broadcast(self_, net_->pools().make_from(std::move(rreq)), kRreqBytes);

  auto& pending = pending_[dst];
  pending.timeout = sim_->after(params_.ring_traversal_time(ttl),
                                [this, dst] { discovery_timeout(dst); });
  LOG_TRACE(kTag, sim_->now()) << "node " << self_ << " RREQ for " << dst
                               << " ttl " << int{ttl};
}

void AodvAgent::discovery_timeout(NodeId dst) {
  const auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  PendingDiscovery& pending = it->second;
  pending.timeout = sim::kInvalidEventId;
  if (table_.find_active(dst, sim_->now()) != nullptr) {
    // Route appeared through other traffic.
    flush_queue(dst);
    return;
  }
  // Expanding ring: grow the TTL; past the threshold, go network-wide.
  std::uint8_t next_ttl;
  if (pending.last_ttl >= params_.ttl_threshold) {
    next_ttl = params_.net_diameter;
  } else {
    next_ttl = static_cast<std::uint8_t>(
        std::min<int>(pending.last_ttl + params_.ttl_increment,
                      params_.ttl_threshold));
  }
  if (pending.last_ttl >= params_.net_diameter) {
    // Already tried network-wide: consume a retry.
    if (pending.retries_left == 0) {
      ++stats_.discoveries_failed;
      stats_.data_dropped += pending.queue.size();
      pending_.erase(it);
      LOG_DEBUG(kTag, sim_->now())
          << "node " << self_ << " discovery for " << dst << " failed";
      return;
    }
    --pending.retries_left;
    next_ttl = params_.net_diameter;
  }
  pending.last_ttl = next_ttl;
  send_rreq(dst, next_ttl);
}

void AodvAgent::flush_queue(NodeId dst) {
  const auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  if (it->second.timeout != sim::kInvalidEventId) sim_->cancel(it->second.timeout);
  std::deque<AppPayloadPtr> queue = std::move(it->second.queue);
  pending_.erase(it);
  for (AppPayloadPtr& app : queue) {
    // Re-enter send(); the route is present so this transmits directly
    // (unless it broke again, which re-queues — correct either way).
    --stats_.data_originated;  // don't double-count
    send(dst, std::move(app));
  }
}

void AodvAgent::learn_route(NodeId dst, NodeId via, std::uint8_t hops) {
  if (dst == self_) return;
  // Treat like a hello-derived route: no sequence information.
  const Route* existing = table_.find(dst);
  const bool better = existing == nullptr || !existing->valid ||
                      existing->expires <= sim_->now() ||
                      hops <= existing->hop_count;
  if (better) {
    Route& r = table_.update(dst, via, hops, existing ? existing->dst_seq : 0,
                             existing ? existing->seq_valid : false,
                             sim_->now() + params_.active_route_timeout);
    (void)r;
    if (pending_.count(dst) != 0) flush_queue(dst);
  }
}

bool AodvAgent::has_route(NodeId dst) {
  return table_.find_active(dst, sim_->now()) != nullptr;
}

int AodvAgent::route_hops(NodeId dst) {
  const Route* r = table_.find_active(dst, sim_->now());
  return r == nullptr ? -1 : static_cast<int>(r->hop_count);
}

void AodvAgent::on_frame(const net::Frame& frame) {
  // Tag dispatch (net::FramePayload::kind): other protocols' frames and
  // untagged payloads fall to default, exactly like a dynamic_cast miss.
  switch (static_cast<FrameKind>(frame.payload->kind)) {
    case FrameKind::kRreq:
      handle_rreq(frame.sender,
                  *static_cast<const Rreq*>(frame.payload.get()));
      break;
    case FrameKind::kRrep:
      if (frame.link_dst == self_) {
        handle_rrep(frame.sender,
                    *static_cast<const Rrep*>(frame.payload.get()));
      }
      break;
    case FrameKind::kRerr:
      if (frame.link_dst == self_ || frame.link_dst == net::kBroadcast) {
        handle_rerr(frame.sender,
                    *static_cast<const Rerr*>(frame.payload.get()));
      }
      break;
    case FrameKind::kData: {
      if (frame.link_dst != self_) break;
      DataMsg copy = *static_cast<const DataMsg*>(frame.payload.get());
      copy.hops_traveled = static_cast<std::uint8_t>(copy.hops_traveled + 1);
      // Receiving data refreshes the neighbor route and the route to src.
      table_.update(frame.sender, frame.sender, 1, 0, false,
                    sim_->now() + params_.active_route_timeout);
      table_.refresh(copy.src, sim_->now() + params_.active_route_timeout);
      route_data(std::move(copy));
      break;
    }
    default:
      break;
  }
}

void AodvAgent::handle_rreq(NodeId from, const Rreq& rreq) {
  if (rreq.origin == self_) return;  // our own flood echoed back
  if (!rreq_seen_.insert(rreq.origin, rreq.bcast_id, sim_->now())) return;

  // Route to the previous hop (1 hop, no sequence info).
  table_.update(from, from, 1, 0, false,
                sim_->now() + params_.active_route_timeout);

  // Reverse route to the originator (RFC 3561 §6.5).
  const auto origin_hops = static_cast<std::uint8_t>(rreq.hop_count + 1);
  if (table_.is_better(rreq.origin, rreq.origin_seq, true, origin_hops,
                       sim_->now())) {
    table_.update(rreq.origin, from, origin_hops, rreq.origin_seq, true,
                  sim_->now() + params_.net_traversal_time() * 2.0);
  }
  if (pending_.count(rreq.origin) != 0 && has_route(rreq.origin)) {
    flush_queue(rreq.origin);
  }

  if (rreq.dst == self_) {
    // RFC 3561 §6.6.1: destination bumps its sequence number if the RREQ's
    // view is newer.
    if (rreq.dst_seq_valid &&
        static_cast<std::int32_t>(rreq.dst_seq - own_seq_) > 0) {
      own_seq_ = rreq.dst_seq;
    }
    ++own_seq_;
    Rrep rrep;
    rrep.route_dst = self_;
    rrep.dst_seq = own_seq_;
    rrep.origin = rreq.origin;
    rrep.hop_count = 0;
    rrep.lifetime = params_.my_route_timeout;
    ++stats_.rrep_sent;
    net_->unicast(self_, from, net_->pools().make_from(std::move(rrep)),
                  kRrepBytes);
    return;
  }

  // Intermediate node with a fresh-enough route replies on behalf of dst.
  if (Route* route = table_.find_active(rreq.dst, sim_->now());
      route != nullptr && route->seq_valid &&
      (!rreq.dst_seq_valid ||
       static_cast<std::int32_t>(route->dst_seq - rreq.dst_seq) >= 0)) {
    Rrep rrep;
    rrep.route_dst = rreq.dst;
    rrep.dst_seq = route->dst_seq;
    rrep.origin = rreq.origin;
    rrep.hop_count = route->hop_count;
    rrep.lifetime = route->expires - sim_->now();
    // Gratuitous precursor bookkeeping (RFC 3561 §6.6.2).
    table_.add_precursor(rreq.dst, from);
    ++stats_.rrep_sent;
    net_->unicast(self_, from, net_->pools().make_from(std::move(rrep)),
                  kRrepBytes);
    return;
  }

  // Rebroadcast with decremented TTL.
  if (rreq.ttl > 1) {
    Rreq fwd = rreq;
    fwd.ttl = static_cast<std::uint8_t>(rreq.ttl - 1);
    fwd.hop_count = static_cast<std::uint8_t>(rreq.hop_count + 1);
    ++stats_.rreq_forwarded;
    net_->broadcast(self_, net_->pools().make_from(std::move(fwd)), kRreqBytes);
  }
}

void AodvAgent::handle_rrep(NodeId from, const Rrep& rrep) {
  // Route to the previous hop.
  table_.update(from, from, 1, 0, false,
                sim_->now() + params_.active_route_timeout);

  const auto hops = static_cast<std::uint8_t>(rrep.hop_count + 1);
  if (table_.is_better(rrep.route_dst, rrep.dst_seq, true, hops, sim_->now())) {
    table_.update(rrep.route_dst, from, hops, rrep.dst_seq, true,
                  sim_->now() + rrep.lifetime);
  }

  if (rrep.origin == self_) {
    flush_queue(rrep.route_dst);
    return;
  }

  // Forward toward the originator along the reverse route.
  Route* reverse = table_.find_active(rrep.origin, sim_->now());
  if (reverse == nullptr) return;  // reverse path expired — RREP dies here
  if (!net_->link_usable(self_, reverse->next_hop)) {
    handle_link_break(reverse->next_hop);
    return;
  }
  // Precursor lists: the node we forward to will route through us.
  table_.add_precursor(rrep.route_dst, reverse->next_hop);
  if (Route* forward = table_.find_active(rrep.route_dst, sim_->now())) {
    table_.add_precursor(forward->next_hop, reverse->next_hop);
  }
  Rrep fwd = rrep;
  fwd.hop_count = hops;
  ++stats_.rrep_forwarded;
  net_->unicast(self_, reverse->next_hop, net_->pools().make_from(std::move(fwd)),
                kRrepBytes);
}

void AodvAgent::reset() {
  for (auto& [dst, pending] : pending_) {
    if (pending.timeout != sim::kInvalidEventId) sim_->cancel(pending.timeout);
    stats_.data_dropped += pending.queue.size();
  }
  pending_.clear();
  table_.clear();
  rreq_seen_.clear();
  // own_seq_ / next_bcast_id_ deliberately survive (see header).
}

void AodvAgent::handle_rerr(NodeId from, const Rerr& rerr) {
  std::vector<NodeId> lost;
  for (const auto& [dst, seq] : rerr.unreachable) {
    const Route* route = table_.find(dst);
    if (route != nullptr && route->valid && route->next_hop == from) {
      table_.invalidate(dst);
      lost.push_back(dst);
    }
  }
  if (!lost.empty()) send_rerr_to_precursors(lost);
}

void AodvAgent::handle_link_break(NodeId next_hop) {
  // Buffer-reusing sweep: no reentrancy hazard because send_rerr only
  // schedules frames, it never re-enters handle_link_break synchronously.
  table_.destinations_via(next_hop, sim_->now(), &via_scratch_);
  for (const NodeId dst : via_scratch_) table_.invalidate(dst);
  table_.invalidate(next_hop);
  if (!via_scratch_.empty()) send_rerr_to_precursors(via_scratch_);
}

void AodvAgent::send_rerr_to_precursors(const std::vector<NodeId>& lost_dsts) {
  // Collect precursors across all lost destinations; one RERR per precursor.
  std::vector<NodeId> precursors;
  Rerr rerr;
  for (const NodeId dst : lost_dsts) {
    const Route* route = table_.find(dst);
    if (route == nullptr) continue;
    rerr.unreachable.emplace_back(dst, route->dst_seq);
    for (const NodeId p : route->precursors) {
      if (std::find(precursors.begin(), precursors.end(), p) ==
          precursors.end()) {
        precursors.push_back(p);
      }
    }
  }
  if (rerr.unreachable.empty() || precursors.empty()) return;
  const std::size_t bytes = rerr_bytes(rerr);
  const net::Ref<Rerr> payload = net_->pools().make_from(std::move(rerr));
  for (const NodeId p : precursors) {
    if (net_->link_usable(self_, p)) {
      ++stats_.rerr_sent;
      net_->unicast(self_, p, payload, bytes);
    }
  }
}

void AodvAgent::route_data(DataMsg data) {
  if (data.dst == self_) {
    ++stats_.data_delivered;
    if (on_deliver_) {
      on_deliver_(data.src, std::move(data.app), int{data.hops_traveled});
    }
    return;
  }
  Route* route = table_.find_active(data.dst, sim_->now());
  if (route == nullptr) {
    ++stats_.data_dropped;
    // RFC 3561 §6.11 case (ii): data for a destination we cannot reach.
    Rerr rerr;
    const Route* stale = table_.find(data.dst);
    rerr.unreachable.emplace_back(data.dst, stale != nullptr ? stale->dst_seq : 0);
    const std::size_t bytes = rerr_bytes(rerr);
    ++stats_.rerr_sent;
    net_->broadcast(self_, net_->pools().make_from(std::move(rerr)), bytes);
    return;
  }
  if (!net_->link_usable(self_, route->next_hop)) {
    handle_link_break(route->next_hop);
    ++stats_.data_dropped;
    return;
  }
  table_.refresh(data.dst, sim_->now() + params_.active_route_timeout);
  table_.refresh(route->next_hop, sim_->now() + params_.active_route_timeout);
  table_.refresh(data.src, sim_->now() + params_.active_route_timeout);
  ++stats_.data_forwarded;
  const std::size_t bytes = data_bytes(data);
  net_->unicast(self_, route->next_hop,
                net_->pools().make_from(std::move(data)), bytes);
}

}  // namespace p2p::routing

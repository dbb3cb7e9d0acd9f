#include "routing/routing_table.hpp"

#include <algorithm>

namespace p2p::routing {

Route* RoutingTable::find_active(NodeId dst, sim::SimTime now) {
  Route* r = entries_.find(dst);
  if (r == nullptr || !r->valid) return nullptr;
  if (r->expires <= now) {
    r->valid = false;  // lifetime elapsed; sequence number is retained
    return nullptr;
  }
  return r;
}

bool RoutingTable::is_better(NodeId dst, std::uint32_t seq, bool seq_valid,
                             std::uint8_t hops, sim::SimTime now) const {
  const Route* r = entries_.find(dst);
  if (r == nullptr) return true;
  if (!r->valid || r->expires <= now) return true;
  if (!r->seq_valid) return true;
  if (!seq_valid) return false;
  const auto newer = static_cast<std::int32_t>(seq - r->dst_seq);
  if (newer > 0) return true;
  if (newer < 0) return false;
  return hops < r->hop_count;
}

Route& RoutingTable::update(NodeId dst, NodeId next_hop, std::uint8_t hops,
                            std::uint32_t seq, bool seq_valid,
                            sim::SimTime expires) {
  Route& r = entries_.get_or_insert(dst);
  r.next_hop = next_hop;
  r.hop_count = hops;
  r.dst_seq = seq;
  r.seq_valid = seq_valid;
  r.valid = true;
  if (expires > r.expires) r.expires = expires;
  return r;
}

void RoutingTable::refresh(NodeId dst, sim::SimTime expires) {
  Route* r = entries_.find(dst);
  if (r == nullptr || !r->valid) return;
  if (expires > r->expires) r->expires = expires;
}

bool RoutingTable::invalidate(NodeId dst) {
  Route* r = entries_.find(dst);
  if (r == nullptr) return false;
  if (r->valid) {
    r->valid = false;
    ++r->dst_seq;  // RFC 3561 §6.11: increment on invalidation
    r->seq_valid = true;
  }
  return true;
}

void RoutingTable::add_precursor(NodeId dst, NodeId precursor) {
  Route* r = entries_.find(dst);
  if (r != nullptr) r->precursors.insert(precursor);
}

void RoutingTable::destinations_via(NodeId next_hop, sim::SimTime now,
                                    std::vector<NodeId>* out) const {
  out->clear();
  entries_.for_each([&](NodeId dst, const Route& r) {
    if (r.valid && r.expires > now && r.next_hop == next_hop) {
      out->push_back(dst);
    }
  });
  // Ascending destination order: a stable, platform-independent RERR
  // ordering regardless of hash-slot layout.
  std::sort(out->begin(), out->end());
}

std::vector<NodeId> RoutingTable::destinations_via(NodeId next_hop,
                                                   sim::SimTime now) const {
  std::vector<NodeId> out;
  destinations_via(next_hop, now, &out);
  return out;
}

RoutingTable::ConstView::ConstView(const RoutingTable* table) : table_(table) {
  keys_.reserve(table->size());
  table->entries_.for_each(
      [&](NodeId dst, const Route&) { keys_.push_back(dst); });
  std::sort(keys_.begin(), keys_.end());
}

}  // namespace p2p::routing

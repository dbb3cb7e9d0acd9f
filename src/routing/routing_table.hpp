// AODV routing table (RFC 3561 §2, §6.2).
//
// Loop freedom comes from destination sequence numbers: a route is only
// replaced by one with a newer sequence number, or an equal sequence
// number and strictly fewer hops.
//
// Representation: an open-addressed map keyed by destination id
// (util::FlatMap) — O(routes actually learned) memory per node, at every
// population. A hot-path lookup is one multiplicative hash plus a short
// linear probe. (A destination-indexed vector would make lookups a plain
// index, but flood reverse-route hints claim arbitrary destination ids
// over time, so such a table grows to O(population) per node and
// O(population^2) fleet-wide: measured 8.3 GB at 10k nodes, and about
// half the peak RSS of a 500-node churn benchmark run.)
//
// A Route is 24 bytes. Precursor lists live outside it, in one sorted
// array per table of `(dst << 32) | precursor` pairs: a destination's
// precursors are one contiguous ascending range, found by a binary search.
// (A tree set per route put a 48-byte header into every slot, plus a
// heap node per precursor.) Routes are never erased one at a time, so no
// pair can outlive its route; clear() empties both.
//
// Expiry state lives intrusively in the Route entries (`valid`/`expires`)
// and is swept in place (find_active invalidates lazily, destinations_via
// skips expired entries during its scan); there is no auxiliary expiry
// structure to keep in sync. clear() drops every entry, so a destination
// re-claimed after a node crash starts pristine: a reborn node never
// observes stale precursors or a stale max-expiry from its previous life.
//
// A Route* (from find_active, find or update) stays valid only across
// calls that cannot grow the map, because growth moves the slots. update()
// may grow it on any call, even for a known destination; offer() and
// offer_hint() look the destination up first and grow the map only when
// it is new. find_active, find, refresh, invalidate, add_precursor and
// clear never move a slot.
//
// Ordering contracts (pinned by the determinism suite): destinations_via
// returns ascending destinations (the platform-independent RERR order)
// and all() iterates ascending by destination; both sort the extracted
// keys, so hash-slot layout can never move a counter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"
#include "util/flat_map.hpp"

namespace p2p::routing {

using net::NodeId;

struct Route {
  NodeId next_hop = net::kInvalidNode;
  std::uint32_t dst_seq = 0;
  std::uint8_t hop_count = 0;
  bool seq_valid = false;
  bool valid = false;          // invalidated routes keep their seq number
  sim::SimTime expires = 0.0;  // lifetime for valid routes
};
static_assert(sizeof(Route) <= 24, "Route is a hot slot; keep it compact");

class RoutingTable {
 public:
  /// Valid, unexpired route or nullptr. Expired routes are invalidated
  /// as a side effect (their sequence numbers survive).
  Route* find_active(NodeId dst, sim::SimTime now);
  const Route* find(NodeId dst) const noexcept { return entries_.find(dst); }

  /// Install/overwrite the route unconditionally (e.g. neighbor routes).
  Route& update(NodeId dst, NodeId next_hop, std::uint8_t hops,
                std::uint32_t seq, bool seq_valid, sim::SimTime expires);

  /// A route learned from the network, advertising (seq, seq_valid, hops):
  /// installed as update() would iff it replaces what we have for dst
  /// under the RFC 3561 §6.2 freshness comparison (an absent, invalid or
  /// expired entry, or one without sequence information, is always
  /// replaced). A rejected offer leaves the entry untouched. Returns
  /// whether the route was installed.
  bool offer(NodeId dst, NodeId next_hop, std::uint8_t hops,
             std::uint32_t seq, bool seq_valid, sim::SimTime expires,
             sim::SimTime now);

  /// A route hint without sequence information: installed (keeping the
  /// entry's sequence number) unless an active route has fewer hops.
  /// Returns whether the route was installed.
  bool offer_hint(NodeId dst, NodeId next_hop, std::uint8_t hops,
                  sim::SimTime expires, sim::SimTime now);

  /// Extend the lifetime of an active route (route used for forwarding).
  void refresh(NodeId dst, sim::SimTime expires);
  /// refresh() on a route find_active just returned, without the lookup.
  static void refresh(Route& route, sim::SimTime expires) noexcept {
    if (expires > route.expires) route.expires = expires;
  }

  /// Mark the route invalid and bump its sequence number (RFC 3561 §6.11).
  /// Returns false if there was no route entry at all.
  bool invalidate(NodeId dst);

  /// Record that `precursor` routes through us to `dst` (no-op when there
  /// is no entry for `dst`, or the pair is already known).
  void add_precursor(NodeId dst, NodeId precursor);

  /// fn(NodeId) for each precursor of `dst`, ascending.
  template <typename Fn>
  void for_each_precursor(NodeId dst, Fn&& fn) const {
    const std::uint64_t lo = std::uint64_t{dst} << 32;
    for (auto it = std::lower_bound(precursors_.begin(), precursors_.end(), lo);
         it != precursors_.end() && (*it >> 32) == dst; ++it) {
      fn(static_cast<NodeId>(*it));
    }
  }

  /// Destinations whose active route uses `next_hop` (link-break handling),
  /// in ascending destination order. Clears and reuses `out`, so per-break
  /// handling allocates nothing in steady state.
  void destinations_via(NodeId next_hop, sim::SimTime now,
                        std::vector<NodeId>* out) const;

  std::size_t size() const noexcept { return entries_.size(); }

  /// Forget every route, sequence numbers and precursors included (node
  /// crash: a reborn node starts from an empty table, RFC 3561 §6.13
  /// handles seq reuse). Slot storage and the precursor array's capacity
  /// are retained; a re-claimed destination starts pristine.
  void clear() noexcept {
    entries_.clear();
    precursors_.clear();
  }

  /// Bytes resident in the table (megascale memory accounting): the slot
  /// arrays plus the precursor array's capacity.
  std::size_t memory_bytes() const noexcept {
    return entries_.memory_bytes() +
           precursors_.capacity() * sizeof(std::uint64_t);
  }

  /// Read-only iterable view over every entry, ascending by destination,
  /// for cross-layer invariant sweeps (cold path: materializes the sorted
  /// key list). Yields `{NodeId dst, const Route& route}` pairs, so
  /// `for (const auto& [dst, route] : table.all())` works as it did over
  /// the old map representation.
  class ConstView {
   public:
    struct Entry {
      NodeId dst;
      const Route& route;
    };
    class iterator {
     public:
      iterator(const ConstView* view, std::size_t i) noexcept
          : view_(view), i_(i) {}
      Entry operator*() const noexcept {
        const NodeId dst = view_->keys_[i_];
        return Entry{dst, *view_->table_->find(dst)};
      }
      iterator& operator++() noexcept {
        ++i_;
        return *this;
      }
      bool operator!=(const iterator& other) const noexcept {
        return i_ != other.i_;
      }

     private:
      const ConstView* view_;
      std::size_t i_;
    };

    explicit ConstView(const RoutingTable* table);
    iterator begin() const noexcept { return iterator(this, 0); }
    iterator end() const noexcept { return iterator(this, keys_.size()); }
    std::size_t size() const noexcept { return keys_.size(); }

   private:
    const RoutingTable* table_;
    std::vector<NodeId> keys_;  // ascending destinations at view creation
  };

  ConstView all() const { return ConstView(this); }

 private:
  util::FlatMap<NodeId, Route, net::kInvalidNode> entries_;
  // Sorted, unique (dst << 32) | precursor pairs.
  std::vector<std::uint64_t> precursors_;
};

}  // namespace p2p::routing

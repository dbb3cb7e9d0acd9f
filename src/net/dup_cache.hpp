// Duplicate-suppression cache for flooded messages.
//
// This is the "controlled broadcast" mechanism the paper added to ns-2's
// AODV: "each node has a cache to keep track of the broadcast messages
// received. This mechanism avoids forwarding the same message several
// times." Keyed by (origin, broadcast id); entries expire so the cache
// stays bounded on long runs.
//
// Representation: a single open-addressed hash table (linear probing,
// power-of-two capacity) of {key, insertion time} pairs — the insert that
// every received flood frame performs is one hash and a short probe, with
// no per-entry heap nodes. Expiry is epoch-based: the first insert at or
// past `purge_due_` rebuilds the table from its live entries in one pass
// and pushes the deadline a full TTL out, so the rebuild cost amortizes
// to O(1) per insert regardless of insert rate. Entries that expire
// mid-epoch stay physically resident until the next rebuild but are
// invisible — insert() compares the recorded insertion time against the
// TTL itself — so correctness never depends on
// purge timing, and there are no tombstones to probe over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/types.hpp"
#include "sim/time.hpp"

namespace p2p::net {

class DupCache {
 public:
  /// `ttl` — how long a (origin,id) pair is remembered. Must exceed the
  /// maximum time a flooded message can still be in flight (hops * per-hop
  /// delay); the default is generous for the paper's 6-hop floods.
  explicit DupCache(sim::SimTime ttl = 30.0) noexcept : ttl_(ttl) {}

  /// Record (origin, id) at time `now`. Returns true if this is the first
  /// sighting (caller should process/forward), false if it is a duplicate.
  /// A duplicate does NOT refresh the original sighting's time.
  bool insert(NodeId origin, std::uint64_t id, sim::SimTime now);

  /// Resident entry count (purges run at insert time, so this includes
  /// entries that expired since the last insert — same lazy semantics the
  /// map+FIFO representation had).
  std::size_t size() const noexcept { return size_; }

  /// Forget everything (node crash/rebirth: a reborn node must not carry
  /// sightings from its previous life). Capacity is retained.
  void clear() noexcept;

  /// Internal-consistency check for the invariant sweep: the occupancy
  /// count matches size(), every resident entry is reachable from its
  /// home slot without crossing an empty slot (the linear-probing
  /// invariant), no recorded insertion lies in the future, and the purge
  /// deadline never trails the oldest entry's expiry. Fills `why` (if
  /// non-null) on failure.
  bool validate(sim::SimTime now, std::string* why = nullptr) const;

  /// Bytes resident in the cache's slot storage, staging buffer included
  /// (megascale memory accounting).
  std::size_t memory_bytes() const noexcept {
    return (entries_.capacity() + scratch_.capacity()) * sizeof(Entry);
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    sim::SimTime time = kEmptyTime;  // < 0 marks an empty slot
  };
  // SimTime is never negative, so a negative sentinel is unambiguous.
  static constexpr sim::SimTime kEmptyTime = -1.0;

  static std::uint64_t key(NodeId origin, std::uint64_t id) noexcept {
    return (static_cast<std::uint64_t>(origin) << 40) ^ id;
  }
  /// Slot holding `k`, or the empty slot where it would be inserted.
  std::size_t slot_for(std::uint64_t k) const noexcept;
  /// Rebuild the table dropping entries expired at `now`; pushes
  /// `purge_due_` one TTL past `now`.
  void purge(sim::SimTime now);
  /// Double the capacity (or allocate the initial table), re-placing
  /// every resident entry.
  void grow();

  sim::SimTime ttl_;
  std::vector<Entry> entries_;  // power-of-two capacity, linear probing
  std::size_t size_ = 0;
  // End of the current expiry epoch (+inf while empty): insert() triggers
  // a one-pass rebuild once now reaches it, then re-arms it a full TTL
  // out. Never tightened to the oldest entry's expiry — see purge().
  sim::SimTime purge_due_ = kNeverDue;
  static constexpr sim::SimTime kNeverDue = 1e300;
  std::vector<Entry> scratch_;  // purge/grow staging, reused across epochs
};

}  // namespace p2p::net

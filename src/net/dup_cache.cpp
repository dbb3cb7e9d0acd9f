#include "net/dup_cache.hpp"

#include "sim/rng.hpp"

namespace p2p::net {

namespace {
constexpr std::size_t kInitialCapacity = 16;  // power of two
}  // namespace

std::size_t DupCache::slot_for(std::uint64_t k) const noexcept {
  const std::size_t mask = entries_.size() - 1;
  std::size_t i = static_cast<std::size_t>(sim::splitmix64(k)) & mask;
  while (entries_[i].time >= 0.0 && entries_[i].key != k) {
    i = (i + 1) & mask;
  }
  return i;
}

void DupCache::grow() {
  const std::size_t cap =
      entries_.empty() ? kInitialCapacity : entries_.size() * 2;
  scratch_.clear();
  for (const Entry& e : entries_) {
    if (e.time >= 0.0) scratch_.push_back(e);
  }
  entries_.assign(cap, Entry{});
  for (const Entry& e : scratch_) {
    entries_[slot_for(e.key)] = e;
  }
}

void DupCache::purge(sim::SimTime now) {
  scratch_.clear();
  for (const Entry& e : entries_) {
    if (e.time >= 0.0 && e.time + ttl_ > now) scratch_.push_back(e);
  }
  for (Entry& e : entries_) e.time = kEmptyTime;
  size_ = scratch_.size();
  for (const Entry& e : scratch_) entries_[slot_for(e.key)] = e;
  // Fixed-cadence epochs: the next rebuild is a full TTL away, bounding
  // the amortized purge cost per insert at O(1). (Recomputing the
  // deadline as oldest-survivor + ttl looks tighter but degenerates under
  // a steady insert stream: the oldest survivor is always about to
  // expire, so every insert pays a full O(capacity) rebuild — an 8x
  // wall-time hit on the flood storms.) Expired residents left behind
  // until the next epoch are invisible to insert(), which compares
  // insertion time against the TTL itself.
  purge_due_ = now + ttl_;
}

bool DupCache::insert(NodeId origin, std::uint64_t id, sim::SimTime now) {
  if (now >= purge_due_) purge(now);
  if (entries_.empty()) grow();
  Entry& e = entries_[slot_for(key(origin, id))];
  if (e.time >= 0.0) {
    if (e.time + ttl_ > now) return false;  // live duplicate, time untouched
    // Expired resident (this epoch's purge has not reached it yet): a
    // fresh sighting, exactly as if the entry had been physically evicted
    // and re-inserted.
    e.time = now;
    return true;
  }
  e.key = key(origin, id);
  e.time = now;
  ++size_;
  if (purge_due_ == kNeverDue) purge_due_ = now + ttl_;
  // Keep load factor under 3/4 so probe chains stay short.
  if (size_ * 4 > entries_.size() * 3) grow();
  return true;
}

void DupCache::clear() noexcept {
  for (Entry& e : entries_) e.time = kEmptyTime;
  size_ = 0;
  purge_due_ = kNeverDue;
}

bool DupCache::validate(sim::SimTime now, std::string* why) const {
  const auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (entries_.empty()) {
    if (size_ != 0) return fail("empty table but size " + std::to_string(size_));
    return true;
  }
  if ((entries_.size() & (entries_.size() - 1)) != 0) {
    return fail("capacity not a power of two");
  }
  const std::size_t mask = entries_.size() - 1;
  std::size_t occupied = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.time < 0.0) continue;
    ++occupied;
    if (e.time > now) return fail("entry recorded in the future");
    // Linear-probing invariant: the walk from the entry's home slot must
    // reach it without crossing an empty slot, or lookups would miss it.
    std::size_t j = static_cast<std::size_t>(sim::splitmix64(e.key)) & mask;
    while (j != i) {
      if (entries_[j].time < 0.0) {
        return fail("entry unreachable from its home slot");
      }
      j = (j + 1) & mask;
    }
  }
  if (occupied != size_) {
    return fail("occupancy/size mismatch: " + std::to_string(occupied) +
                " vs " + std::to_string(size_));
  }
  // The epoch deadline is always set while entries are resident, and was
  // stamped `then + ttl` at some instant `then <= now`.
  if (occupied != 0 && (purge_due_ == kNeverDue || purge_due_ > now + ttl_)) {
    return fail("purge deadline unset or more than one TTL out");
  }
  return true;
}

}  // namespace p2p::net

#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/assert.hpp"

namespace p2p::sim {

namespace {

// Ladder tuning. Buckets aim for kTargetPerBucket entries so the dip sort
// stays a handful of elements; a bucket past kRebucketThreshold is carved
// into a finer child rung instead of sorted wholesale. Spills of at most
// kDirectSpreadMax entries skip the rung machinery entirely. The target
// of 8 is empirical (megascale 50k/100k sweep over {1, 2, 4, 8, 16},
// best-of-N against this container's run-to-run noise): coarser buckets
// shift work from bucket routing into the dip sort and finer ones the
// other way, with the minimum total cost around 8 entries per bucket.
constexpr std::size_t kTargetPerBucket = 8;
constexpr std::size_t kRebucketThreshold = 64;
constexpr std::size_t kDirectSpreadMax = 64;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
// Compaction trigger: dead > live and at least this many.
constexpr std::size_t kCompactMinDead = 64;
// Bound the consumed-prefix slack kept in bottom_ between full drains.
constexpr std::size_t kBottomTrim = 4096;

}  // namespace

EventId EventQueue::push(SimTime at, EventFn fn) {
  P2P_ASSERT_MSG(at == at, "NaN event time");  // NaN check
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_gen_.size());
    slot_gen_.push_back(0);
    slot_fn_.emplace_back();
  }
  slot_fn_[slot] = std::move(fn);
  const std::uint32_t gen = slot_gen_[slot];
  const Entry e{at, next_seq_++, slot, gen};
  insert(e);
  ++live_count_;
  if (live_count_ > peak_size_) peak_size_ = live_count_;
  ++raw_count_;
  if (raw_count_ > peak_raw_size_) peak_raw_size_ = raw_count_;
  return encode(slot, gen);
}

bool EventQueue::cancel(EventId id) noexcept {
  if (id == kInvalidEventId) return false;
  // Unsigned wrap sends a zero low half to 0xffffffff, which fails the
  // bound check below.
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffULL) - 1U;
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slot_gen_.size() || slot_gen_[slot] != gen) return false;
  ++slot_gen_[slot];      // tombstone: the queued entry is now dead
  slot_fn_[slot].reset(); // release captured resources eagerly
  free_slots_.push_back(slot);
  --live_count_;
  maybe_compact();
  return true;
}

SimTime EventQueue::next_time() {
  const Entry* e = front();
  return e == nullptr ? kTimeNever : e->time;
}

EventQueue::Popped EventQueue::pop() {
  const Entry* e = front();
  P2P_ASSERT_MSG(e != nullptr, "pop from empty EventQueue");
  const Entry top = *e;
  ++bottom_head_;
  if (bottom_head_ >= kBottomTrim && bottom_head_ * 2 >= bottom_.size()) {
    bottom_.erase(bottom_.begin(),
                  bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
    bottom_head_ = 0;
  }
  --raw_count_;
  ++slot_gen_[top.slot];  // the handle is dead the moment the event fires
  free_slots_.push_back(top.slot);
  --live_count_;
  ++stats_.pops;
  return Popped{top.time, encode(top.slot, top.gen),
                std::move(slot_fn_[top.slot])};
}

std::size_t EventQueue::bucket_index(const Rung& rung, double t) noexcept {
  // Canonical and monotone in t; out-of-range times clamp to the edge
  // buckets, so every timestamp has exactly one home and equal times can
  // never be split across buckets.
  const double off = t - rung.start;
  if (off <= 0.0) return 0;
  const double idx = off / rung.width;
  const std::size_t nb = rung.buckets.size();
  if (idx >= static_cast<double>(nb)) return nb - 1;
  return static_cast<std::size_t>(idx);
}

void EventQueue::insert(const Entry& e) {
  if (e.time >= top_start_) {
    top_.push_back(e);
    return;
  }
  for (std::size_t r = 0; r < rungs_.size(); ++r) {
    Rung& rung = rungs_[r];
    const std::size_t k = bucket_index(rung, e.time);
    if (k < rung.cur) break;  // already-consumed region -> bottom
    if (k == rung.cur && r + 1 < rungs_.size()) continue;  // refined: descend
    rung.buckets[k].push_back(e);
    return;
  }
  bottom_insert(e);
}

void EventQueue::bottom_insert(const Entry& e) {
  const auto first = bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_);
  // New entries carry the globally largest seq, so lower_bound lands after
  // every queued tie at the same instant — FIFO preserved.
  const auto it = std::lower_bound(first, bottom_.end(), e, earlier);
  bottom_.insert(it, e);
}

const EventQueue::Entry* EventQueue::front() {
  for (;;) {
    while (bottom_head_ < bottom_.size()) {
      const Entry& e = bottom_[bottom_head_];
      if (live(e)) return &e;
      ++bottom_head_;
      --raw_count_;
      ++stats_.tombstones_purged;
    }
    bottom_.clear();
    bottom_head_ = 0;
    if (refill_bottom()) continue;
    if (top_.empty()) return nullptr;
    spread_top();
  }
}

void EventQueue::filter_dead(std::vector<Entry>& entries, double* lo,
                             double* hi) noexcept {
  double min_t = kTimeNever;
  double max_t = -kTimeNever;
  std::size_t kept = 0;
  for (Entry& e : entries) {
    if (!live(e)) {
      --raw_count_;
      ++stats_.tombstones_purged;
      continue;
    }
    if (e.time < min_t) min_t = e.time;
    if (e.time > max_t) max_t = e.time;
    entries[kept++] = e;
  }
  entries.resize(kept);
  *lo = min_t;
  *hi = max_t;
}

void EventQueue::release_bucket(std::vector<Entry>&& bucket) {
  // Pool only bucket-sized buffers. A vector that grew past the re-bucket
  // threshold (an outer bucket just carved into a child rung, say) is
  // freed: pooled, it would come back as a small bucket still holding its
  // large buffer, and the pool's total capacity would only ever grow.
  if (bucket.capacity() > kRebucketThreshold) {
    std::vector<Entry>().swap(bucket);
    return;
  }
  bucket.clear();
  if (bucket.capacity() > 0 && bucket_pool_.size() < kMaxBuckets) {
    bucket_pool_.push_back(std::move(bucket));
  }
}

void EventQueue::retire_innermost_rung() {
  Rung rung = std::move(rungs_.back());
  rungs_.pop_back();
  if (!rungs_.empty()) ++rungs_.back().cur;  // the refined bucket is done
  for (auto& bucket : rung.buckets) release_bucket(std::move(bucket));
  rung.buckets.clear();
  rung_pool_.push_back(std::move(rung));
}

bool EventQueue::try_make_rung(std::vector<Entry>& entries, double lo,
                               double hi) {
  if (!(hi > lo)) return false;
  std::size_t nb = entries.size() / kTargetPerBucket;
  if (nb < 2) nb = 2;
  if (nb > kMaxBuckets) nb = kMaxBuckets;
  const double width = (hi - lo) / static_cast<double>(nb);
  // Subdivision underflow (denormal span or width lost to rounding):
  // sorting is the only refinement that still makes progress.
  if (!(width > 0.0) || !(lo + width > lo)) return false;
  Rung rung;
  if (!rung_pool_.empty()) {
    rung = std::move(rung_pool_.back());
    rung_pool_.pop_back();
  }
  rung.start = lo;
  rung.width = width;
  rung.cur = 0;
  rung.buckets.resize(nb);
  for (auto& bucket : rung.buckets) {
    if (bucket_pool_.empty()) break;
    bucket = std::move(bucket_pool_.back());
    bucket_pool_.pop_back();
  }
  for (const Entry& e : entries) {
    rung.buckets[bucket_index(rung, e.time)].push_back(e);
  }
  entries.clear();
  rungs_.push_back(std::move(rung));
  return true;
}

bool EventQueue::refill_bottom() {
  while (!rungs_.empty()) {
    Rung& rung = rungs_.back();
    if (rung.cur >= rung.buckets.size()) {
      retire_innermost_rung();
      continue;
    }
    std::vector<Entry> bucket = std::move(rung.buckets[rung.cur]);
    double lo = 0.0;
    double hi = 0.0;
    filter_dead(bucket, &lo, &hi);
    if (bucket.empty()) {
      release_bucket(std::move(bucket));
      ++rung.cur;
      continue;
    }
    if (bucket.size() > kRebucketThreshold &&
        try_make_rung(bucket, lo, hi)) {
      // rung.cur stays: the child rung now refines this bucket, and
      // inserts routed to it descend (insert).
      ++stats_.ladder_rebuckets;
      release_bucket(std::move(bucket));
      continue;
    }
    std::sort(bucket.begin(), bucket.end(), earlier);
    // Copy, not swap: bottom_ keeps its own capacity and the bucket goes
    // back to the pool with its own. A swap would hand bottom_'s buffer
    // (grown by near-future bottom_insert pushes) to the pool at every
    // dip, ratcheting every pooled bucket up to bottom_'s peak size.
    bottom_.assign(bucket.begin(), bucket.end());
    bottom_head_ = 0;
    release_bucket(std::move(bucket));
    ++rung.cur;
    return true;
  }
  return false;
}

void EventQueue::spread_top() {
  // Pre: bottom_ and rungs_ drained, top_ non-empty.
  double lo = 0.0;
  double hi = 0.0;
  filter_dead(top_, &lo, &hi);
  if (top_.empty()) return;  // all dead; caller re-checks
  std::vector<Entry> entries;
  std::swap(entries, top_);
  // Everything at or below hi now lives in the sorted region; later
  // arrivals beyond it collect in top_ for the next spread.
  top_start_ = std::nextafter(hi, kTimeNever);
  ++stats_.ladder_spills;
  if (entries.size() > kDirectSpreadMax && try_make_rung(entries, lo, hi)) {
    std::swap(top_, entries);  // reuse the old top capacity
    return;
  }
  std::sort(entries.begin(), entries.end(), earlier);
  std::swap(bottom_, entries);
  bottom_head_ = 0;
  std::swap(top_, entries);  // old (cleared) bottom capacity, if any
  top_.clear();
}

// --- tombstone compaction ----------------------------------------------

void EventQueue::maybe_compact() {
  const std::size_t dead = raw_count_ - live_count_;
  if (dead < kCompactMinDead || dead <= live_count_) return;
  const auto is_dead = [this](const Entry& e) { return !live(e); };
  const auto sweep = [&](std::vector<Entry>& v) {
    const auto dead_end = std::remove_if(v.begin(), v.end(), is_dead);
    const auto removed = static_cast<std::size_t>(v.end() - dead_end);
    v.erase(dead_end, v.end());
    raw_count_ -= removed;
    stats_.tombstones_purged += removed;
  };
  if (bottom_head_ > 0) {  // drop the consumed prefix first
    bottom_.erase(bottom_.begin(),
                  bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_head_));
    bottom_head_ = 0;
  }
  sweep(bottom_);  // remove_if is stable, so the sort order survives
  for (Rung& rung : rungs_) {
    for (std::size_t k = rung.cur; k < rung.buckets.size(); ++k) {
      sweep(rung.buckets[k]);
    }
  }
  sweep(top_);
  ++stats_.compactions;
}

}  // namespace p2p::sim

// Pending-event set for the discrete-event kernel.
//
// A ladder/calendar queue (Tang, Goh, Thng): an unsorted top tier collects
// far-future events; when the sorted region drains, the top is spread
// into a rung of time buckets sized from the observed min/max spacing; an
// oversized bucket is re-bucketed into a finer child rung on demand; the
// earliest bucket is sorted by (time, seq) into the bottom tier and popped
// by advancing an index. Schedule/pop are O(1) amortized — each event is
// touched a constant number of times on average — so events/s stays flat
// from the paper's shallow 150-node queues to mega-scale pending sets of
// hundreds of thousands (see docs/performance.md). Pop order is the strict
// (time, seq) total order, so the container can never change simulation
// results.
//
// Supporting machinery:
//
//   * entries are 24-byte PODs {time, seq, slot, gen}; the closures live
//     out-of-line in a slot-indexed array and never move during
//     re-buckets,
//   * an EventId encodes (generation, slot); cancel() is an O(1) array
//     probe — important because the P2P maintenance layer cancels timers
//     constantly (every received pong reschedules a timeout),
//   * cancelled entries stay queued as tombstones (their slot generation
//     no longer matches) and are skipped on pop; their closure is
//     destroyed eagerly so captured resources release at cancel time,
//   * when tombstones outnumber live entries, a compaction pass sweeps
//     them out, so a cancel-heavy run can never carry an unbounded dead
//     fraction,
//   * slots are recycled through a free list, and bucket vectors through
//     a pool, so a long-running simulation reuses the same storage instead
//     of growing it.
//
// Closures are sim::EventFn — a fixed-capacity inline function (see
// inplace_function.hpp) — so push() never allocates for captures.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inplace_function.hpp"
#include "sim/time.hpp"

namespace p2p::sim {

/// Opaque handle for cancellation. Value 0 is "no event". Internally
/// encodes (generation << 32) | (slot + 1); handles are recycled only
/// after 2^32 lifecycles of the same slot, so stale handles from fired or
/// cancelled events can never reach a live event.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

using EventFn = InplaceFn<kEventCaptureBytes>;

class EventQueue {
 public:
  /// Schedule `fn` at absolute time `at`. Returns a handle usable with
  /// cancel(). Ties at equal time fire in push order (FIFO), which makes
  /// runs bit-reproducible.
  EventId push(SimTime at, EventFn fn);

  /// Cancel a pending event. Returns true if the event existed and had not
  /// yet fired. Cancelling an already-fired or invalid id is a no-op.
  bool cancel(EventId id) noexcept;

  bool empty() const noexcept { return live_count_ == 0; }
  std::size_t size() const noexcept { return live_count_; }

  /// Time of the earliest live event; kTimeNever when empty.
  SimTime next_time();

  /// Pop the earliest live event. Pre: !empty().
  struct Popped {
    SimTime time;
    EventId id;
    EventFn fn;
  };
  Popped pop();

  /// Total events ever scheduled (telemetry).
  std::uint64_t total_scheduled() const noexcept { return next_seq_; }

  /// High-water mark of live pending events (telemetry). Counts only
  /// live entries, so it is independent of purge timing and bit-identical
  /// across thread counts; peak_raw_size() is the physical-storage
  /// counterpart.
  std::size_t peak_size() const noexcept { return peak_size_; }

  /// High-water mark of physically stored entries, tombstones included.
  /// peak_raw_size() - peak_size() bounds how much dead weight the
  /// compaction policy let accumulate; unlike peak_size() it depends on
  /// purge timing.
  std::size_t peak_raw_size() const noexcept { return peak_raw_size_; }

  /// Operation counters (telemetry; fixed-seed deterministic). Pushes are
  /// total_scheduled(). Spill = one top-tier spread into a new rung;
  /// re-bucket = one oversized bucket carved into a finer child rung.
  struct Stats {
    std::uint64_t pops = 0;
    std::uint64_t tombstones_purged = 0;
    std::uint64_t compactions = 0;
    std::uint64_t ladder_spills = 0;
    std::uint64_t ladder_rebuckets = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct Entry {  // 24-byte POD; the closure lives in slot_fn_[slot]
    SimTime time;
    std::uint64_t seq;   // tie-break: FIFO among equal timestamps
    std::uint32_t slot;  // index into slot_gen_ / slot_fn_
    std::uint32_t gen;   // live iff slot_gen_[slot] == gen
  };
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static constexpr EventId encode(std::uint32_t slot,
                                  std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }
  bool live(const Entry& e) const noexcept {
    return slot_gen_[e.slot] == e.gen;
  }

  // --- Three tiers, earliest first:
  //   bottom_ — the current dip, sorted ascending by (time, seq) and
  //             consumed by advancing bottom_head_,
  //   rungs_  — a stack of bucket arrays; rungs_[r+1] always refines
  //             bucket `cur` of rungs_[r], so the innermost rung covers
  //             the earliest remaining time region,
  //   top_    — unsorted overflow for times >= top_start_.
  // Routing uses one canonical bucket_index() (monotone in t and clamped
  // to the bucket range), so insert and dip can never disagree about
  // which bucket a boundary timestamp belongs to — the classic
  // calendar-queue float pitfall.
  struct Rung {
    double start = 0.0;
    double width = 0.0;  // > 0; bucket k spans [start+k*w, start+(k+1)*w)
    std::size_t cur = 0;  // innermost: next bucket to dip; outer rungs:
                          // the bucket currently refined by the child
    std::vector<std::vector<Entry>> buckets;
  };
  static std::size_t bucket_index(const Rung& rung, double t) noexcept;
  void insert(const Entry& e);
  /// Sorted insert into the pending suffix of bottom_ ("past" region).
  void bottom_insert(const Entry& e);
  /// Earliest live entry (== bottom_[bottom_head_]) or nullptr when the
  /// queue is empty. Purges dead entries and refills bottom_ as needed.
  const Entry* front();
  /// Move the innermost rung's next non-empty bucket into bottom_,
  /// re-bucketing oversized buckets first. False when all rungs drained.
  bool refill_bottom();
  /// Spread top_ into a fresh rung (or straight into bottom_ when small
  /// or unsubdividable) and advance top_start_ past its max.
  void spread_top();
  /// Carve `entries` (live, times spanning [lo, hi], hi > lo) into a new
  /// innermost rung. False when bucket subdivision would underflow.
  bool try_make_rung(std::vector<Entry>& entries, double lo, double hi);
  /// Drop dead entries in place (stable), count them, and report the
  /// survivors' min/max time.
  void filter_dead(std::vector<Entry>& entries, double* lo,
                   double* hi) noexcept;
  void release_bucket(std::vector<Entry>&& bucket);
  /// Pop rungs_.back() into the pool and advance the parent past the
  /// bucket the child was refining.
  void retire_innermost_rung();

  // --- Tombstone compaction: when the dead outnumber the live, sweep
  // them instead of waiting for them to surface at the front.
  void maybe_compact();

  std::vector<Entry> bottom_;
  std::size_t bottom_head_ = 0;
  std::vector<Rung> rungs_;
  std::vector<Entry> top_;
  double top_start_ = -kTimeNever;  // raised past the max at every spread
  // Capacity recycling: spreads are rare but allocate many small bucket
  // vectors; pooling them makes the steady state allocation-free. The
  // pool holds bucket-sized buffers only: bottom_ keeps its own buffer
  // (refill_bottom copies a dipped bucket in) and release_bucket frees
  // oversized ones, so pooled capacity cannot ratchet up over a run.
  std::vector<std::vector<Entry>> bucket_pool_;
  std::vector<Rung> rung_pool_;

  // Slot machinery.
  std::vector<std::uint32_t> slot_gen_;  // current generation per slot
  std::vector<EventFn> slot_fn_;         // closure storage per slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  std::size_t peak_size_ = 0;
  std::size_t raw_count_ = 0;  // physically stored entries (dead included)
  std::size_t peak_raw_size_ = 0;
  Stats stats_;
};

}  // namespace p2p::sim

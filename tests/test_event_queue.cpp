// EventQueue: ordering, FIFO tie-breaking, cancellation, randomized
// model checks against a sorted reference, and a storage bound.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"

// Counting replacement of the global allocation functions for this test
// binary: g_live_bytes is every byte currently allocated through operator
// new (as malloc_usable_size reports it, on allocation and release alike;
// the array forms forward here by default). Only the storage test reads
// it.
namespace {
std::atomic<std::size_t> g_live_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
  return p;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using p2p::sim::EventId;
using p2p::sim::EventQueue;
using p2p::sim::kTimeNever;

// Test-only oracle: the strict (time, seq) total order the queue must
// realize, as a sorted map. seq is the push count, so equal-time ties pop
// in push order (FIFO) — never by id value, since ids are opaque handles.
class ReferenceQueue {
 public:
  void push(double t, EventId id) {
    const Key key{t, next_seq_++};
    order_.emplace(key, id);
    key_of_.emplace(id, key);
  }
  bool cancel(EventId id) {
    const auto it = key_of_.find(id);
    if (it == key_of_.end()) return false;
    order_.erase(it->second);
    key_of_.erase(it);
    return true;
  }
  /// Earliest (time, id). Pre: !empty().
  std::pair<double, EventId> pop() {
    const auto it = order_.begin();
    const std::pair<double, EventId> front{it->first.first, it->second};
    key_of_.erase(it->second);
    order_.erase(it);
    return front;
  }
  bool empty() const { return order_.empty(); }
  std::size_t size() const { return order_.size(); }
  double next_time() const {
    return order_.empty() ? kTimeNever : order_.begin()->first.first;
  }

 private:
  using Key = std::pair<double, std::uint64_t>;
  std::map<Key, EventId> order_;
  std::map<EventId, Key> key_of_;
  std::uint64_t next_seq_ = 0;
};

TEST(EventQueue, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0U);
  EXPECT_EQ(queue.next_time(), kTimeNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInPushOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliestLiveEvent) {
  EventQueue queue;
  const EventId early = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 1.0);
  queue.cancel(early);
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
}

TEST(EventQueue, CancelReturnsTrueOnlyForLiveEvents) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));  // already cancelled
  EXPECT_FALSE(queue.cancel(p2p::sim::kInvalidEventId));
  EXPECT_FALSE(queue.cancel(99999));
}

TEST(EventQueue, CancelledEventNeverPops) {
  EventQueue queue;
  bool fired = false;
  const EventId id = queue.push(1.0, [&] { fired = true; });
  queue.push(2.0, [] {});
  queue.cancel(id);
  EXPECT_EQ(queue.size(), 1U);
  while (!queue.empty()) queue.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue queue;
  const EventId id = queue.push(1.0, [] {});
  queue.pop();
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueue, IdsAreUniqueAndNonZero) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(queue.push(1.0, [] {}));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
  EXPECT_NE(ids.front(), p2p::sim::kInvalidEventId);
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  EventQueue queue;
  const EventId a = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  EXPECT_EQ(queue.size(), 2U);
  queue.cancel(a);
  EXPECT_EQ(queue.size(), 1U);
  queue.pop();
  EXPECT_EQ(queue.size(), 0U);
}

TEST(EventQueue, TotalScheduledIsMonotonic) {
  EventQueue queue;
  EXPECT_EQ(queue.total_scheduled(), 0U);
  queue.push(1.0, [] {});
  const EventId b = queue.push(1.0, [] {});
  queue.cancel(b);
  EXPECT_EQ(queue.total_scheduled(), 2U);
}

// --- Targeted lock-in tests for cancel/pop semantics (captured before the
// --- tombstone/slot-generation rewrite; the rewrite must keep them green).

TEST(EventQueue, CancelThenPopSkipsToNextLiveEvent) {
  EventQueue queue;
  std::vector<int> order;
  const EventId head = queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  queue.push(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(queue.cancel(head));
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  auto popped = queue.pop();
  EXPECT_DOUBLE_EQ(popped.time, 2.0);
  popped.fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(queue.size(), 1U);
}

TEST(EventQueue, CancelAlreadyFiredIdNeverHitsALaterEvent) {
  EventQueue queue;
  const EventId fired = queue.push(1.0, [] {});
  queue.pop();
  // A new event scheduled after the fire must be untouchable through the
  // stale handle, even if the queue recycles internal storage.
  bool second_fired = false;
  queue.push(2.0, [&] { second_fired = true; });
  EXPECT_FALSE(queue.cancel(fired));
  EXPECT_EQ(queue.size(), 1U);
  queue.pop().fn();
  EXPECT_TRUE(second_fired);
}

TEST(EventQueue, InterleavedFifoTiesSurviveCancellation) {
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(queue.push(5.0, [&order, i] { order.push_back(i); }));
  }
  queue.cancel(ids[1]);
  queue.cancel(ids[4]);
  // New pushes at the same timestamp go to the back of the FIFO tie.
  queue.push(5.0, [&order] { order.push_back(6); });
  queue.push(5.0, [&order] { order.push_back(7); });
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5, 6, 7}));
}

TEST(EventQueue, PeakAccountingCountsOnlyLiveEvents) {
  EventQueue queue;
  const EventId a = queue.push(1.0, [] {});
  queue.push(2.0, [] {});
  queue.push(3.0, [] {});
  EXPECT_EQ(queue.peak_size(), 3U);
  queue.cancel(a);
  // Cancel does not retroactively lower the high-water mark...
  EXPECT_EQ(queue.peak_size(), 3U);
  // ...and a push replacing a cancelled event does not raise it either.
  queue.push(4.0, [] {});
  EXPECT_EQ(queue.size(), 3U);
  EXPECT_EQ(queue.peak_size(), 3U);
  queue.push(5.0, [] {});
  EXPECT_EQ(queue.peak_size(), 4U);
}

TEST(EventQueue, PopAfterMassCancelFindsTheSurvivor) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(queue.push(static_cast<double>(i), [] {}));
  }
  bool survivor_fired = false;
  const EventId survivor = queue.push(50.5, [&] { survivor_fired = true; });
  for (const EventId id : ids) EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 1U);
  EXPECT_DOUBLE_EQ(queue.next_time(), 50.5);
  auto popped = queue.pop();
  EXPECT_EQ(popped.id, survivor);
  popped.fn();
  EXPECT_TRUE(survivor_fired);
  EXPECT_TRUE(queue.empty());
}

// Property: under random interleavings of push/cancel/pop, the queue
// behaves exactly like the sorted reference.
class EventQueueModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModelTest, MatchesReferenceModel) {
  p2p::sim::RngStream rng(GetParam());
  EventQueue queue;
  ReferenceQueue model;
  std::vector<EventId> ids;  // every handle ever returned, live or not

  for (int step = 0; step < 2000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.55) {
      const double t = rng.uniform(0.0, 100.0);
      const EventId id = queue.push(t, [] {});
      model.push(t, id);
      ids.push_back(id);
    } else if (roll < 0.75 && !ids.empty()) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      EXPECT_EQ(queue.cancel(ids[pick]), model.cancel(ids[pick]));
    } else if (!model.empty()) {
      ASSERT_FALSE(queue.empty());
      const auto popped = queue.pop();
      const auto expect = model.pop();
      EXPECT_DOUBLE_EQ(popped.time, expect.first);
      EXPECT_EQ(popped.id, expect.second);
    }
    ASSERT_EQ(queue.size(), model.size());
    if (!model.empty()) {
      EXPECT_DOUBLE_EQ(queue.next_time(), model.next_time());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelTest,
                         ::testing::Values(1, 2, 3, 7, 42, 1234));

// --- Ladder machinery under load: tens of thousands of randomized ops
// --- deep enough to build rungs, checked element for element against the
// --- reference — including FIFO among equal-time ties.

TEST(EventQueueLadder, PopSequenceMatchesReference) {
  // Named stream so the op sequence is pinned independently of any other
  // RNG consumer (docs/determinism.md).
  p2p::sim::RngManager rngs(20260809);
  p2p::sim::RngStream rng = rngs.stream("queue-differential");
  EventQueue queue;
  ReferenceQueue model;
  std::vector<EventId> live_ids;

  std::uint64_t pops = 0, ties = 0;
  double recent_time = 1.0;
  for (int step = 0; step < 50000; ++step) {
    const double roll = rng.uniform01();
    if (roll < 0.50) {
      // Mostly fresh times; 15% reuse the last pushed time to force
      // same-instant FIFO ties through the queue.
      double t = rng.uniform(0.0, 10000.0);
      if (rng.uniform01() < 0.15) {
        t = recent_time;
        ++ties;
      }
      recent_time = t;
      const EventId id = queue.push(t, [] {});
      model.push(t, id);
      live_ids.push_back(id);
    } else if (roll < 0.72 && !live_ids.empty()) {
      const auto pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(live_ids.size()) - 1));
      EXPECT_EQ(queue.cancel(live_ids[pick]), model.cancel(live_ids[pick]));
      live_ids.erase(live_ids.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (!model.empty()) {
      ASSERT_FALSE(queue.empty());
      const auto a = queue.pop();
      const auto b = model.pop();
      ASSERT_EQ(a.time, b.first) << "pop " << pops;
      ASSERT_EQ(a.id, b.second) << "pop " << pops;
      ++pops;
    }
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_EQ(queue.next_time(), model.next_time());
  }
  // Drain the remainder in lockstep.
  while (!model.empty()) {
    ASSERT_FALSE(queue.empty());
    const auto a = queue.pop();
    const auto b = model.pop();
    ASSERT_EQ(a.time, b.first);
    ASSERT_EQ(a.id, b.second);
    ++pops;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_GT(pops, 10000U);
  EXPECT_GT(ties, 1000U);
  // The workload is deep enough to exercise the rung machinery, not just
  // the bottom tier.
  EXPECT_GT(queue.stats().ladder_spills, 0U);
  EXPECT_EQ(queue.stats().pops, pops);
}

// A monotone-time workload shaped like the simulator's (pop one, push a
// few slightly ahead) matches the reference as well.
TEST(EventQueueLadder, SteadyStateSimShapedWorkloadMatchesReference) {
  p2p::sim::RngManager rngs(7);
  p2p::sim::RngStream rng = rngs.stream("queue-steady");
  EventQueue queue;
  ReferenceQueue model;
  const auto push = [&](double t) { model.push(t, queue.push(t, [] {})); };
  for (int i = 0; i < 2000; ++i) push(rng.uniform(0.0, 10.0));
  for (int i = 0; i < 30000; ++i) {
    const auto a = queue.pop();
    const auto b = model.pop();
    ASSERT_EQ(a.time, b.first);
    ASSERT_EQ(a.id, b.second);
    const int fanout = static_cast<int>(rng.uniform_int(0, 2));
    for (int f = 0; f < fanout; ++f) {
      // Mix of short frame-like delays and long timer-like delays.
      const double delay = rng.uniform01() < 0.8
                               ? rng.uniform(1e-4, 1e-3)
                               : rng.uniform(1.0, 30.0);
      push(a.time + delay);
    }
    ASSERT_EQ(queue.size(), model.size());
  }
  EXPECT_GT(queue.stats().ladder_spills, 0U);
}

// --- Tombstone compaction: a cancel-heavy run must not carry an unbounded
// --- dead fraction until tombstones surface at the front — the threshold
// --- sweep reclaims them eagerly.

TEST(EventQueueCompaction, MassCancelTriggersCompaction) {
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 4096; ++i) {
    ids.push_back(queue.push(static_cast<double>(i % 97), [] {}));
  }
  EXPECT_EQ(queue.peak_raw_size(), 4096U);
  // Cancel everything except one survivor in the middle.
  bool survivor_fired = false;
  const EventId survivor = queue.push(42.5, [&] { survivor_fired = true; });
  for (const EventId id : ids) EXPECT_TRUE(queue.cancel(id));
  EXPECT_EQ(queue.size(), 1U);
  // The sweep fired well before the drain (dead > live threshold) and
  // reclaimed the tombstones without waiting for pops.
  EXPECT_GT(queue.stats().compactions, 0U);
  EXPECT_GT(queue.stats().tombstones_purged, 4000U);
  auto popped = queue.pop();
  EXPECT_EQ(popped.id, survivor);
  popped.fn();
  EXPECT_TRUE(survivor_fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueCompaction, RawPeakBoundsLivePeak) {
  EventQueue queue;
  p2p::sim::RngStream rng(99);
  std::vector<EventId> ids;
  for (int step = 0; step < 20000; ++step) {
    if (ids.size() < 64 || rng.uniform01() < 0.5) {
      ids.push_back(queue.push(rng.uniform(0.0, 100.0), [] {}));
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      queue.cancel(ids[pick]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  }
  EXPECT_GE(queue.peak_raw_size(), queue.peak_size());
  // Compaction keeps raw storage within a small multiple of live: dead
  // can never exceed max(live, threshold) right after a sweep, so the raw
  // peak is bounded by twice the live peak plus the trigger slack.
  EXPECT_LE(queue.peak_raw_size(), 2 * queue.peak_size() + 128);
}

// --- Storage bound: the queue's heap footprint stays proportional to the
// --- most entries it ever held. Pooled bucket vectors used to inherit the
// --- bottom tier's buffer at every dip and keep the buffers of buckets
// --- carved into child rungs, so their capacity only ever grew: ~40x the
// --- entry bytes on this workload, and rising with its length.

TEST(EventQueueMemory, FootprintStaysProportionalToPeakEntries) {
  // Flood waves over periodic timers, the shape of a Basic world: each
  // timer re-arms itself, and 5% of timer firings start a wave of frame
  // arrivals over the next half second. The near ones land in the sorted
  // bottom tier and grow it; the far ones overfill rung buckets, which
  // are then re-bucketed.
  constexpr std::size_t kEntryBytes = 24;  // sizeof the queue's entry POD
  const std::size_t base = g_live_bytes.load();
  std::size_t worst = 0;
  std::size_t peak_raw = 0;
  std::uint64_t rebuckets = 0;
  {
    EventQueue queue;
    p2p::sim::RngStream rng(5);
    bool timer = false;
    const auto arm_timer = [&](double t) {
      queue.push(t, [&timer] { timer = true; });
    };
    for (int i = 0; i < 2000; ++i) arm_timer(rng.uniform(0.0, 30.0));
    for (int i = 0; i < 200000; ++i) {
      auto popped = queue.pop();
      timer = false;
      popped.fn();
      if (!timer) continue;  // a frame arrival: nothing follows
      arm_timer(popped.time + rng.uniform(1.0, 30.0));
      if (rng.uniform01() < 0.05) {
        for (int f = 0; f < 500; ++f) {
          queue.push(popped.time + rng.uniform(1e-4, 0.5), [] {});
        }
      }
      worst = std::max(worst, g_live_bytes.load() - base);
    }
    peak_raw = queue.peak_raw_size();
    rebuckets = queue.stats().ladder_rebuckets;
  }
  EXPECT_GT(rebuckets, 100U);
  // Slots (closure + generation, in doubling vectors) cost up to ~7
  // entries each; buckets, tiers and pool bookkeeping add a few more.
  EXPECT_LE(worst, 16 * peak_raw * kEntryBytes)
      << "peak_raw " << peak_raw << ", rebuckets " << rebuckets;
}

}  // namespace

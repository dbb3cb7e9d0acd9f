// Discrete-event simulator facade.
//
// One Simulator instance is one independent simulated world; experiment
// drivers run many worlds concurrently, one per thread, with zero shared
// mutable state (each run owns its Simulator, Network, RNG streams, ...).
#pragma once

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace p2p::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }

  /// Schedule at an absolute time. Times in the past are clamped to now()
  /// (the event fires next, after already-queued events at now()).
  EventId at(SimTime when, EventFn fn);

  /// Schedule after a relative delay (>= 0).
  EventId after(SimTime delay, EventFn fn);

  /// Cancel a pending event; no-op if it already fired. Returns whether a
  /// live event was cancelled.
  bool cancel(EventId id) noexcept { return queue_.cancel(id); }

  /// Run until the queue drains or `until` is reached, whichever is first.
  /// Events scheduled exactly at `until` do fire. Returns the number of
  /// events processed by this call.
  std::uint64_t run_until(SimTime until);

  /// Run events with time strictly below `end`, leaving now() at the last
  /// processed event. Events at or beyond `end` stay queued. This is the
  /// per-shard primitive of conservative windowed execution (sharded.hpp):
  /// an event exactly at a window boundary belongs to the next window,
  /// where the global-vs-shard ordering decision at that instant is
  /// re-made. Unlike run_until, the clock is NOT advanced to `end` — the
  /// executor owns clock advancement across windows.
  std::uint64_t run_window(SimTime end);

  /// Earliest pending event time, or kTimeNever when the queue is empty.
  /// (Non-const: purges cancelled tombstones sitting at the queue front.)
  SimTime next_event_time() noexcept { return queue_.next_time(); }

  /// Run until the queue drains.
  std::uint64_t run() { return run_until(kTimeNever); }

  /// Request an orderly stop from inside an event handler; run_until
  /// returns after the current handler completes.
  void stop() noexcept { stopped_ = true; }
  bool stopped() const noexcept { return stopped_; }

  std::uint64_t events_processed() const noexcept { return events_processed_; }
  std::size_t events_pending() const noexcept { return queue_.size(); }
  std::uint64_t events_scheduled() const noexcept { return queue_.total_scheduled(); }
  std::size_t peak_events_pending() const noexcept { return queue_.peak_size(); }
  /// Physical-storage high-water mark (tombstones included); the live
  /// counterpart is peak_events_pending().
  std::size_t peak_raw_events_pending() const noexcept {
    return queue_.peak_raw_size();
  }
  /// Queue operation counters (pops, purges, compactions, ladder
  /// spills/re-buckets); fixed-seed deterministic.
  const EventQueue::Stats& queue_stats() const noexcept {
    return queue_.stats();
  }

 private:
  EventQueue queue_;
  SimTime now_ = kTimeZero;
  bool stopped_ = false;
  std::uint64_t events_processed_ = 0;
};

}  // namespace p2p::sim

// Conservative (lookahead) parallel discrete-event execution.
//
// One simulation run is split into S spatial shards, each owning a full
// Simulator (event queue + clock), plus one *global* Simulator for events
// that must observe a quiesced world (fault injection, overlay sampling,
// monitors). Shards advance together through windows [m, m + L): m is the
// earliest pending shard event, L the lookahead — the minimum latency of
// any cross-node interaction (frame airtime of an empty payload plus
// propagation; jitter and serialization only add). Within a window a shard
// can influence another shard only at times >= m + L, i.e. strictly after
// the window — so every shard can execute its slice of the window without
// looking at the others, and cross-shard deliveries are exchanged at the
// barrier as time-stamped messages for later windows.
//
// Determinism across thread counts is by construction, not by luck:
//   * each shard's window is executed sequentially by exactly one thread;
//   * events enter a shard's queue either from its own execution (same
//     order regardless of which thread runs it) or at the barrier, where
//     the coordinator drains outboxes in fixed shard order 0..S-1;
//   * so every queue's (time, seq) order — and therefore every pop order
//     and every per-shard RNG draw sequence — is a pure function of the
//     shard decomposition, never of the thread count. sim_threads=1 and
//     sim_threads=8 replay the exact same event history.
//
// The global queue is serialized against the shards: when the earliest
// global event g precedes the earliest shard event m, the coordinator runs
// it alone with all shards quiesced (every shard event before g has
// executed, none at or after g has). Ties (g == m) run the global event
// first — one fixed rule, same on every thread count.
//
// Every Simulator here (global and shards) runs the same ladder event
// queue (sim/event_queue.hpp). Nothing above depends on the container
// beyond its strict (time, seq) pop order, which fixes the window
// schedule, the barrier exchanges and the RNG draw sequences.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace p2p::sim {

/// Sense-reversing spin barrier. Parties are the coordinator plus the
/// worker threads; each caller keeps its own sense flag. acquire/release
/// ordering on the shared atomics makes every write before an arrival
/// visible to every party after the release — the happens-before edge the
/// whole windowed execution (and TSan) relies on.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::size_t parties) noexcept
      : parties_(parties), remaining_(parties) {}

  /// Re-arm for a different party count. Only legal while nobody waits.
  void reset(std::size_t parties) noexcept {
    parties_ = parties;
    remaining_.store(parties, std::memory_order_relaxed);
    sense_.store(false, std::memory_order_relaxed);
  }

  void arrive_and_wait(bool* local_sense) noexcept {
    const bool my_sense = !*local_sense;
    *local_sense = my_sense;
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last arriver: everyone else's writes are acquired through the
      // counter chain; re-arm and release the flock.
      remaining_.store(parties_, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);
    } else {
      // Busy-wait: windows are microseconds apart, parking would cost
      // more than it saves. But cap the pure spin — on an oversubscribed
      // host (threads > cores) an unyielding spinner steals the very
      // timeslice the last arriver needs, turning each window into a
      // scheduler round-trip. yield() keeps the worst case at "one
      // reschedule", while the first kSpins iterations keep the hot
      // multicore path syscall-free.
      constexpr int kSpins = 4096;
      int spins = 0;
      while (sense_.load(std::memory_order_acquire) != my_sense) {
        if (++spins >= kSpins) {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }

 private:
  std::size_t parties_;
  std::atomic<std::size_t> remaining_;
  std::atomic<bool> sense_{false};
};

/// Drives S shard Simulators plus one global Simulator to t_end using
/// conservative lookahead windows. Thread count is pure execution: any
/// value produces the same event history (see header comment).
class ShardedExecutor {
 public:
  /// All hooks are optional. before_window/after_window run on the
  /// coordinator with every shard quiesced; enter_shard/exit_shard bracket
  /// one shard's execution on whatever thread runs it (the network layer
  /// uses them to bind its thread-local lane context).
  struct Callbacks {
    std::function<void(SimTime window_start, SimTime window_end)>
        before_window;
    std::function<void(SimTime window_end)> after_window;
    std::function<void(std::size_t shard)> enter_shard;
    std::function<void()> exit_shard;
  };

  ShardedExecutor(std::vector<Simulator*> shards, Simulator* global,
                  SimTime lookahead, std::size_t threads);
  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Run every queue to `t_end` (inclusive, like Simulator::run_until) and
  /// advance all clocks to t_end.
  void run(SimTime t_end, const Callbacks& cb);

  /// Windows executed by the last run() — granularity telemetry.
  std::uint64_t windows_run() const noexcept { return windows_; }

 private:
  void worker_loop(std::size_t tid);
  /// Execute this thread's statically assigned shards (s % threads == tid)
  /// for the published window.
  void run_assigned(std::size_t tid);

  std::vector<Simulator*> shards_;
  Simulator* global_;
  SimTime lookahead_;
  std::size_t threads_;

  // Published window (coordinator writes, workers read; ordered by the
  // start barrier).
  SimTime window_end_ = 0.0;
  bool window_inclusive_ = false;
  const Callbacks* cb_ = nullptr;
  std::size_t parties_ = 1;
  std::atomic<bool> stop_{false};

  SpinBarrier start_barrier_{1};
  SpinBarrier end_barrier_{1};
  std::vector<std::thread> workers_;
  std::uint64_t windows_ = 0;
};

}  // namespace p2p::sim

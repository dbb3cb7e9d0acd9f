// Counter registry for the p2pd serving daemon.
//
// A fixed, flat set of named monotonic counters plus a few gauges,
// updated lock-free from session and worker threads and snapshotted by
// the STATS verb. Registration happens once at server construction (the
// deque never reallocates a live counter), so hot-path updates are a
// single relaxed atomic add through a pre-resolved pointer — sessions
// never touch the registry mutex after lookup.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>

namespace p2p::serve {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void sub(std::uint64_t delta = 1) noexcept {
    value_.fetch_sub(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Metrics {
 public:
  /// Counter named `name`, registering it on first use. Stable address
  /// for the lifetime of the Metrics object; registration order is
  /// emission order in to_json().
  Counter& counter(std::string_view name);

  /// One-line JSON snapshot: {"type":"stats","<name>":<value>,...} in
  /// registration order.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;  // registration + snapshot only, never updates
  std::deque<std::pair<std::string, Counter>> counters_;
};

}  // namespace p2p::serve

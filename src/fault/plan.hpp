// A FaultPlan is the compiled, deterministic schedule of every fault the
// scenario will inject: node crashes/recoveries, link blackouts, and
// channel loss-burst transitions, sorted by time.
//
// Compilation draws from dedicated named RNG streams — ("fault-churn", i)
// per node, "fault-blackout", "fault-burst" — so adding or removing a
// fault process never perturbs any other random consumer (the stream
// isolation rule of docs/determinism.md). The plan is a pure function of
// (FaultParams, node count, horizon, master seed); the injector then
// walks it against the simulator clock.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/params.hpp"
#include "net/types.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace p2p::fault {

enum class FaultKind : std::uint8_t {
  kNodeCrash,       // a = node
  kNodeRecover,     // a = node
  kLinkBlackout,    // a, b = endpoints; value = duration (s)
  kLossBurstStart,  // value = extra loss probability
  kLossBurstEnd,
};

struct FaultEvent {
  sim::SimTime time = 0.0;
  FaultKind kind = FaultKind::kNodeCrash;
  net::NodeId a = net::kInvalidNode;
  net::NodeId b = net::kInvalidNode;
  double value = 0.0;

  friend bool operator==(const FaultEvent& x, const FaultEvent& y) noexcept {
    return x.time == y.time && x.kind == y.kind && x.a == y.a && x.b == y.b &&
           x.value == y.value;
  }
};

class FaultPlan {
 public:
  /// Compile the schedule for `num_nodes` nodes over [0, horizon).
  /// Deterministic: same params + same RngManager seed => same plan.
  static FaultPlan compile(const FaultParams& params, std::size_t num_nodes,
                           sim::SimTime horizon, sim::RngManager& rngs);

  const std::vector<FaultEvent>& events() const noexcept { return events_; }
  bool empty() const noexcept { return events_.empty(); }
  std::size_t size() const noexcept { return events_.size(); }

 private:
  std::vector<FaultEvent> events_;  // sorted by (time, kind, a, b)
};

}  // namespace p2p::fault

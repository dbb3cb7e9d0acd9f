// Mobility model interface.
//
// The kernel advances time monotonically, so models only have to answer
// position queries for non-decreasing times; they may advance internal
// state on each call (lazily generating movement legs).
//
// Every model describes its motion as a sequence of legs: a `Leg` is one
// straight-line (or stationary) piece of the trajectory together with the
// half-open time interval it is valid for. `Leg::at` is the one and only
// interpolation formula — `position_at(t)` is defined as
// `leg_at(t).at(t)` — so a caller that keeps a copy of the current leg
// (net::Network keeps one per node) gets bit-identical positions without
// calling back into the model until the leg expires.
#pragma once

#include <limits>

#include "geo/vec2.hpp"
#include "sim/time.hpp"

namespace p2p::mobility {

/// One piece of a piecewise-linear trajectory, valid for times in
/// [start, end). A moving leg interpolates from `from` (at `start`) toward
/// `to` over `span` seconds; a stationary leg sits at `from`. `span` is
/// carried rather than recomputed because `end - start` need not equal the
/// model's own step length in floating point (Gauss-Markov accumulates its
/// segment starts). The default leg is empty: valid for no time at all.
struct Leg {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  geo::Vec2 from;
  geo::Vec2 to;
  double span = 0.0;
  bool moving = false;

  geo::Vec2 at(sim::SimTime t) const noexcept {
    if (!moving) return from;
    const double f = (t - start) / span;
    return from + (to - from) * f;
  }
};

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// The leg in force at simulation time `t`, advancing internal state to
  /// it: the result satisfies start <= t < end. Callers guarantee `t` is
  /// non-decreasing across calls on a given model instance.
  virtual Leg leg_at(sim::SimTime t) = 0;

  /// Position at simulation time `t` (same monotonicity contract).
  geo::Vec2 position_at(sim::SimTime t) { return leg_at(t).at(t); }
};

/// A node that never moves. Its leg is valid forever, so a Network that
/// owns the model never asks again: set_position() is for standalone use
/// only and is not seen by a Network once the node has been queried.
class StaticModel final : public MobilityModel {
 public:
  explicit StaticModel(geo::Vec2 pos) noexcept : pos_(pos) {}
  Leg leg_at(sim::SimTime t) override {
    return {t, std::numeric_limits<sim::SimTime>::infinity(), pos_, pos_, 0.0,
            false};
  }
  void set_position(geo::Vec2 pos) noexcept { pos_ = pos; }

 private:
  geo::Vec2 pos_;
};

}  // namespace p2p::mobility

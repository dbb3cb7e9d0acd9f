// Scripted mobility for tests: play back an explicit waypoint schedule,
// so a test can form and break links at chosen instants. No scenario
// selects it; it is a fixture only.
#pragma once

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "geo/vec2.hpp"
#include "mobility/model.hpp"
#include "util/assert.hpp"

namespace p2p::mobility {

/// One scheduled movement: at `start_time`, begin moving to `target` at
/// `speed` m/s (speed 0 = teleport instantly).
struct TraceStep {
  sim::SimTime start_time = 0.0;
  geo::Vec2 target;
  double speed = 0.0;
};

class TraceModel final : public MobilityModel {
 public:
  /// `initial` is the position before the first step. Steps must be sorted
  /// by start_time; a step preempts any unfinished previous movement.
  TraceModel(geo::Vec2 initial, std::vector<TraceStep> steps)
      : initial_(initial), steps_(std::move(steps)) {
    for (std::size_t i = 1; i < steps_.size(); ++i) {
      P2P_ASSERT_MSG(steps_[i - 1].start_time <= steps_[i].start_time,
                     "trace steps must be sorted by start_time");
    }
  }

  /// The schedule is replayed from the start on every call, so the leg is
  /// a stationary one valid for the single instant [t, nextafter(t)):
  /// repeated queries at one instant reuse it, later ones ask again.
  Leg leg_at(sim::SimTime t) override {
    const geo::Vec2 pos = replay(t);
    return {t,
            std::nextafter(t, std::numeric_limits<sim::SimTime>::infinity()),
            pos, pos, 0.0, false};
  }

 private:
  /// Position at time t assuming motion began at (t0, from) toward step s.
  static geo::Vec2 interpolate(const TraceStep& s, geo::Vec2 from,
                               sim::SimTime t) {
    if (s.speed <= 0.0) return s.target;  // teleport
    const double dist = geo::distance(from, s.target);
    if (dist == 0.0) return s.target;
    const double travel = (t - s.start_time) * s.speed;
    if (travel >= dist) return s.target;
    return from + (s.target - from) * (travel / dist);
  }

  /// Position at time t, replaying the whole schedule: each step moves the
  /// node from wherever the previous steps left it at the step's
  /// start_time, until it is preempted by the next step or the query time
  /// is reached.
  geo::Vec2 replay(sim::SimTime t) const {
    geo::Vec2 pos = initial_;
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      if (steps_[i].start_time > t) break;
      const bool preempted =
          i + 1 < steps_.size() && steps_[i + 1].start_time <= t;
      const sim::SimTime horizon = preempted ? steps_[i + 1].start_time : t;
      pos = interpolate(steps_[i], pos, horizon);
    }
    return pos;
  }

  geo::Vec2 initial_;
  std::vector<TraceStep> steps_;
};

}  // namespace p2p::mobility

// Scripted mobility: play back an explicit waypoint schedule.
//
// Used by tests (deterministic link formation/breakage) and to import
// ns-2 `setdest`-style movement files so scenarios can be replayed against
// the original toolchain.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "geo/vec2.hpp"
#include "mobility/model.hpp"

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
  TraceModel(geo::Vec2 initial, std::vector<TraceStep> steps);

  /// The schedule is replayed from the start on every call, so the leg is
  /// a stationary one valid for the single instant [t, nextafter(t)):
  /// repeated queries at one instant reuse it, later ones ask again.
  Leg leg_at(sim::SimTime t) override;

  /// Parse a simple text format, one step per line:
  ///   <start_time> <x> <y> <speed>
  /// Blank lines and '#' comments are skipped. Returns false on syntax
  /// errors, leaving `error` with a description.
  static bool parse(std::string_view text, std::vector<TraceStep>* steps,
                    std::string* error);

 private:
  /// Position at time t assuming motion began at (t0, from) toward step s.
  static geo::Vec2 interpolate(const TraceStep& s, geo::Vec2 from, sim::SimTime t);
  /// Position at time t, replaying the whole schedule.
  geo::Vec2 replay(sim::SimTime t) const;

  geo::Vec2 initial_;
  std::vector<TraceStep> steps_;
};

}  // namespace p2p::mobility

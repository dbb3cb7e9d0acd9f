#include "mobility/random_waypoint.hpp"

#include "util/assert.hpp"

namespace p2p::mobility {

RandomWaypoint::RandomWaypoint(const RandomWaypointParams& params,
                               sim::RngStream rng)
    : params_(params), rng_(std::move(rng)) {
  P2P_ASSERT(params_.max_speed > 0.0);
  P2P_ASSERT(params_.min_speed > 0.0 && params_.min_speed <= params_.max_speed);
  P2P_ASSERT(params_.max_pause >= 0.0);
  // Start with a pause at the initial point; without pause_first it is
  // empty and the first query immediately starts a movement leg.
  leg_.from = {rng_.uniform(0.0, params_.region.width),
               rng_.uniform(0.0, params_.region.height)};
  leg_.to = leg_.from;
  leg_.end = params_.pause_first ? rng_.uniform(0.0, params_.max_pause) : 0.0;
  leg_.span = leg_.end;
}

void RandomWaypoint::begin_next_leg() {
  const geo::Vec2 here = leg_.to;
  leg_.start = leg_.end;
  leg_.from = here;
  if (!leg_.moving) {
    // Start moving toward a fresh waypoint.
    leg_.to = {rng_.uniform(0.0, params_.region.width),
               rng_.uniform(0.0, params_.region.height)};
    const double speed = rng_.uniform(params_.min_speed, params_.max_speed);
    const double dist = geo::distance(leg_.from, leg_.to);
    leg_.end = leg_.start + (speed > 0.0 ? dist / speed : 0.0);
  } else {
    // Arrived: pause at the waypoint.
    leg_.to = here;
    leg_.end = leg_.start + rng_.uniform(0.0, params_.max_pause);
  }
  leg_.moving = !leg_.moving;
  leg_.span = leg_.end - leg_.start;
}

Leg RandomWaypoint::leg_at(sim::SimTime t) {
  advance_to(t);
  return leg_;
}

}  // namespace p2p::mobility

#include "mobility/random_direction.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace p2p::mobility {

RandomDirection::RandomDirection(const RandomDirectionParams& params,
                                 sim::RngStream rng)
    : params_(params), rng_(std::move(rng)) {
  P2P_ASSERT(params_.max_speed > 0.0);
  P2P_ASSERT(params_.min_speed > 0.0 && params_.min_speed <= params_.max_speed);
  leg_.from = {rng_.uniform(0.0, params_.region.width),
               rng_.uniform(0.0, params_.region.height)};
  leg_.to = leg_.from;
  leg_.end = rng_.uniform(0.0, params_.max_pause);
  leg_.span = leg_.end;
}

void RandomDirection::begin_next_leg() {
  const geo::Vec2 here = leg_.to;
  leg_.start = leg_.end;
  leg_.from = here;
  if (!leg_.moving) {
    // Pick a direction; walk until the first boundary intersection.
    const double theta = rng_.uniform(0.0, 2.0 * 3.14159265358979323846);
    const geo::Vec2 dir{std::cos(theta), std::sin(theta)};
    // Distance to each boundary along dir (positive only).
    double tmax = 1e18;
    if (dir.x > 1e-12) tmax = std::min(tmax, (params_.region.width - here.x) / dir.x);
    if (dir.x < -1e-12) tmax = std::min(tmax, (0.0 - here.x) / dir.x);
    if (dir.y > 1e-12) tmax = std::min(tmax, (params_.region.height - here.y) / dir.y);
    if (dir.y < -1e-12) tmax = std::min(tmax, (0.0 - here.y) / dir.y);
    if (tmax < 0.0 || tmax > 1e17) tmax = 0.0;  // axis-parallel edge case
    leg_.to = params_.region.clamp(here + dir * tmax);
    const double speed = rng_.uniform(params_.min_speed, params_.max_speed);
    const double dist = geo::distance(here, leg_.to);
    leg_.end = leg_.start + (speed > 0.0 ? dist / speed : 0.0);
  } else {
    leg_.to = here;
    leg_.end = leg_.start + rng_.uniform(0.0, params_.max_pause);
  }
  leg_.moving = !leg_.moving;
  leg_.span = leg_.end - leg_.start;
}

Leg RandomDirection::leg_at(sim::SimTime t) {
  advance_to(t);
  return leg_;
}

}  // namespace p2p::mobility

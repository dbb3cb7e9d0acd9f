// Mobility models: random waypoint invariants (in-bounds, speed-bounded,
// actually moves), the scripted trace model incl. preemption, and the leg
// contract every model shares (a cached leg answers exactly what
// position_at would).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "geo/vec2.hpp"
#include "mobility/gauss_markov.hpp"
#include "mobility/random_direction.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/trace.hpp"
#include "sim/rng.hpp"

namespace {

using namespace p2p;
using mobility::RandomWaypoint;
using mobility::RandomWaypointParams;
using mobility::StaticModel;
using mobility::TraceModel;
using mobility::TraceStep;

TEST(StaticModel, NeverMoves) {
  StaticModel model({3.0, 4.0});
  EXPECT_EQ(model.position_at(0.0), (geo::Vec2{3.0, 4.0}));
  EXPECT_EQ(model.position_at(1e6), (geo::Vec2{3.0, 4.0}));
  model.set_position({1.0, 1.0});
  EXPECT_EQ(model.position_at(1e6), (geo::Vec2{1.0, 1.0}));
}

class RandomWaypointSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWaypointSeeded, StaysInsideRegion) {
  RandomWaypointParams params;
  params.region = {100.0, 100.0};
  RandomWaypoint model(params, sim::RngStream(GetParam()));
  for (double t = 0.0; t <= 7200.0; t += 1.7) {
    const geo::Vec2 p = model.position_at(t);
    EXPECT_TRUE(params.region.contains(p))
        << "escaped at t=" << t << " -> (" << p.x << ", " << p.y << ")";
  }
}

TEST_P(RandomWaypointSeeded, SpeedNeverExceedsMax) {
  RandomWaypointParams params;
  params.max_speed = 1.0;
  RandomWaypoint model(params, sim::RngStream(GetParam()));
  geo::Vec2 prev = model.position_at(0.0);
  for (double t = 0.5; t <= 3600.0; t += 0.5) {
    const geo::Vec2 cur = model.position_at(t);
    const double speed = geo::distance(prev, cur) / 0.5;
    EXPECT_LE(speed, params.max_speed + 1e-9);
    prev = cur;
  }
}

TEST_P(RandomWaypointSeeded, EventuallyMoves) {
  RandomWaypointParams params;
  params.max_pause = 10.0;
  RandomWaypoint model(params, sim::RngStream(GetParam()));
  const geo::Vec2 start = model.position_at(0.0);
  double moved = 0.0;
  for (double t = 0.0; t <= 600.0; t += 5.0) {
    moved = std::max(moved, geo::distance(start, model.position_at(t)));
  }
  EXPECT_GT(moved, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWaypointSeeded,
                         ::testing::Values(1, 2, 3, 17, 99));

TEST(RandomWaypoint, InitialPositionIsInsideAndReported) {
  RandomWaypointParams params;
  params.region = {40.0, 20.0};
  RandomWaypoint model(params, sim::RngStream(5));
  EXPECT_TRUE(params.region.contains(model.initial_position()));
  EXPECT_EQ(model.position_at(0.0), model.initial_position());
}

class RandomDirectionSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDirectionSeeded, StaysInsideAndMoves) {
  mobility::RandomDirectionParams params;
  params.region = {80.0, 60.0};
  params.max_pause = 10.0;
  mobility::RandomDirection model(params, sim::RngStream(GetParam()));
  const geo::Vec2 start = model.position_at(0.0);
  double moved = 0.0;
  for (double t = 0.0; t <= 2000.0; t += 2.3) {
    const geo::Vec2 p = model.position_at(t);
    ASSERT_TRUE(params.region.contains(p)) << "escaped at t=" << t;
    moved = std::max(moved, geo::distance(start, p));
  }
  EXPECT_GT(moved, 5.0);
}

TEST_P(RandomDirectionSeeded, LegsEndOnTheBoundary) {
  // Sample densely: random-direction nodes must repeatedly touch an edge
  // (the model's defining property vs random waypoint).
  mobility::RandomDirectionParams params;
  params.region = {50.0, 50.0};
  params.max_pause = 1.0;
  mobility::RandomDirection model(params, sim::RngStream(GetParam()));
  int boundary_visits = 0;
  for (double t = 0.0; t <= 2000.0; t += 0.5) {
    const geo::Vec2 p = model.position_at(t);
    const bool on_edge = p.x < 0.5 || p.x > 49.5 || p.y < 0.5 || p.y > 49.5;
    if (on_edge) ++boundary_visits;
  }
  EXPECT_GT(boundary_visits, 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDirectionSeeded,
                         ::testing::Values(1, 7, 23));

class GaussMarkovSeeded : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GaussMarkovSeeded, StaysInsideAndMovesSmoothly) {
  mobility::GaussMarkovParams params;
  params.region = {100.0, 100.0};
  mobility::GaussMarkov model(params, sim::RngStream(GetParam()));
  geo::Vec2 prev = model.position_at(0.0);
  double moved = 0.0;
  for (double t = 0.5; t <= 1000.0; t += 0.5) {
    const geo::Vec2 p = model.position_at(t);
    ASSERT_TRUE(params.region.contains(p)) << "escaped at t=" << t;
    // Smoothness: per half-second displacement bounded by a few sigma of
    // the speed process.
    EXPECT_LT(geo::distance(prev, p), 3.0);
    moved = std::max(moved, geo::distance(model.position_at(0.0), p));
    prev = p;
  }
  EXPECT_GT(moved, 3.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaussMarkovSeeded,
                         ::testing::Values(2, 11, 31));

TEST(GaussMarkov, AlphaOneIsBallistic) {
  // With alpha = 1 and zero noise influence, speed and heading never
  // change: displacement grows linearly until the boundary clamp.
  mobility::GaussMarkovParams params;
  params.alpha = 1.0;
  mobility::GaussMarkov model(params, sim::RngStream(3));
  const geo::Vec2 p1 = model.position_at(1.0);
  const geo::Vec2 p2 = model.position_at(2.0);
  const geo::Vec2 p3 = model.position_at(3.0);
  const geo::Vec2 d1 = p2 - p1;
  const geo::Vec2 d2 = p3 - p2;
  EXPECT_NEAR(d1.x, d2.x, 1e-9);
  EXPECT_NEAR(d1.y, d2.y, 1e-9);
}

TEST(TraceModel, HoldsInitialPositionBeforeFirstStep) {
  TraceModel model({5.0, 5.0}, {{10.0, {20.0, 5.0}, 1.0}});
  EXPECT_EQ(model.position_at(0.0), (geo::Vec2{5.0, 5.0}));
  EXPECT_EQ(model.position_at(9.99), (geo::Vec2{5.0, 5.0}));
}

TEST(TraceModel, MovesLinearlyAtGivenSpeed) {
  TraceModel model({0.0, 0.0}, {{0.0, {10.0, 0.0}, 2.0}});
  EXPECT_NEAR(model.position_at(1.0).x, 2.0, 1e-9);
  EXPECT_NEAR(model.position_at(2.5).x, 5.0, 1e-9);
  EXPECT_NEAR(model.position_at(5.0).x, 10.0, 1e-9);
  EXPECT_NEAR(model.position_at(100.0).x, 10.0, 1e-9);  // stays at target
}

TEST(TraceModel, SpeedZeroTeleports) {
  TraceModel model({0.0, 0.0}, {{5.0, {30.0, 40.0}, 0.0}});
  EXPECT_EQ(model.position_at(4.9), (geo::Vec2{0.0, 0.0}));
  EXPECT_EQ(model.position_at(5.0), (geo::Vec2{30.0, 40.0}));
}

TEST(TraceModel, LaterStepPreemptsUnfinishedMove) {
  // Move toward (10,0) at 1 m/s from t=0; at t=4 divert to (4, 10).
  TraceModel model({0.0, 0.0},
                   {{0.0, {10.0, 0.0}, 1.0}, {4.0, {4.0, 10.0}, 1.0}});
  EXPECT_NEAR(model.position_at(4.0).x, 4.0, 1e-9);
  const geo::Vec2 later = model.position_at(9.0);  // 5 s toward (4,10)
  EXPECT_NEAR(later.x, 4.0, 1e-9);
  EXPECT_NEAR(later.y, 5.0, 1e-9);
}

// ---- Leg identity ---------------------------------------------------------
//
// net::Network caches each node's current leg and asks the model again only
// once the leg has expired. That is sound only if leg_at(t).at(t') equals
// position_at(t') bit for bit for every t' the leg covers. Each check runs
// two twin models from the same seed — one read through a cached leg, one
// through position_at — over a sweep that lands exactly on leg ends, on
// the last double before them, and at irregular strides in between.

struct LegSweep {
  int legs = 0;
  int moving = 0;
  int stationary = 0;
  bool span_differs = false;  // some leg had end - start != span
};

void expect_bit_equal(geo::Vec2 a, geo::Vec2 b, double t) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.x), std::bit_cast<std::uint64_t>(b.x))
      << "x at t=" << t << ": " << a.x << " vs " << b.x;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.y), std::bit_cast<std::uint64_t>(b.y))
      << "y at t=" << t << ": " << a.y << " vs " << b.y;
}

LegSweep sweep_legs(mobility::MobilityModel& via_leg,
                    mobility::MobilityModel& direct, double horizon,
                    double stride) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LegSweep out;
  mobility::Leg leg;  // empty: the first query fetches a real leg
  double t = 0.0;
  for (int k = 0; t <= horizon; ++k) {
    if (t >= leg.end) {
      leg = via_leg.leg_at(t);
      ++out.legs;
      ++(leg.moving ? out.moving : out.stationary);
      if (leg.end - leg.start != leg.span) out.span_differs = true;
    }
    EXPECT_LE(leg.start, t);
    EXPECT_LT(t, leg.end);
    expect_bit_equal(leg.at(t), direct.position_at(t), t);
    switch (k % 3) {
      case 0:  // the last instant the leg covers (or a stride, if far)
        t = std::min(t + stride, std::max(t, std::nextafter(leg.end, -kInf)));
        break;
      case 1:  // exactly the leg end: the next query crosses into a new leg
        t = std::min(t + stride, leg.end);
        break;
      default:
        t += stride * 0.37;
        break;
    }
  }
  return out;
}

TEST(MobilityLeg, RandomWaypointMatchesPositionAt) {
  for (const bool pause_first : {true, false}) {
    RandomWaypointParams params;
    params.region = {60.0, 40.0};
    params.max_pause = 5.0;
    params.pause_first = pause_first;
    RandomWaypoint a(params, sim::RngStream(21));
    RandomWaypoint b(params, sim::RngStream(21));
    const LegSweep s = sweep_legs(a, b, 2000.0, 0.9);
    EXPECT_GT(s.moving, 10) << "pause_first=" << pause_first;
    EXPECT_GT(s.stationary, 10) << "pause_first=" << pause_first;
  }
}

TEST(MobilityLeg, RandomDirectionMatchesPositionAt) {
  mobility::RandomDirectionParams params;
  params.region = {50.0, 30.0};
  params.max_pause = 3.0;
  mobility::RandomDirection a(params, sim::RngStream(8));
  mobility::RandomDirection b(params, sim::RngStream(8));
  const LegSweep s = sweep_legs(a, b, 2000.0, 0.7);
  EXPECT_GT(s.moving, 10);
  EXPECT_GT(s.stationary, 10);
}

TEST(MobilityLeg, GaussMarkovMatchesPositionAtWithInexactSteps) {
  // step = 0.1 is not a binary fraction: accumulated segment starts make
  // (start + step) - start differ from step, which is why a Leg carries
  // its own span instead of recomputing end - start.
  mobility::GaussMarkovParams params;
  params.step = 0.1;
  mobility::GaussMarkov a(params, sim::RngStream(4));
  mobility::GaussMarkov b(params, sim::RngStream(4));
  const LegSweep s = sweep_legs(a, b, 300.0, 0.03);
  EXPECT_GT(s.moving, 1000);
  EXPECT_TRUE(s.span_differs);
}

TEST(MobilityLeg, StaticLegNeverExpires) {
  StaticModel a({3.0, 4.0});
  StaticModel b({3.0, 4.0});
  const LegSweep s = sweep_legs(a, b, 100.0, 1.3);
  EXPECT_EQ(s.legs, 1);
  EXPECT_EQ(a.leg_at(5.0).end, std::numeric_limits<double>::infinity());
}

TEST(MobilityLeg, TraceLegCoversOneInstant) {
  const std::vector<TraceStep> steps = {
      {2.0, {10.0, 0.0}, 1.0}, {6.0, {4.0, 10.0}, 2.0}, {9.0, {0.0, 0.0}, 0.0}};
  TraceModel a({0.0, 0.0}, steps);
  TraceModel b({0.0, 0.0}, steps);
  sweep_legs(a, b, 20.0, 0.4);
  // Repeated queries at one instant reuse the leg; the next double does not.
  const mobility::Leg leg = a.leg_at(7.0);
  EXPECT_EQ(leg.start, 7.0);
  EXPECT_EQ(leg.end, std::nextafter(7.0, 8.0));
}

TEST(TraceModel, ParseValidInput) {
  std::vector<TraceStep> steps;
  std::string error;
  ASSERT_TRUE(TraceModel::parse("# comment\n0 1 2 0.5\n\n10 3 4 1\n", &steps,
                                &error))
      << error;
  ASSERT_EQ(steps.size(), 2U);
  EXPECT_DOUBLE_EQ(steps[0].start_time, 0.0);
  EXPECT_DOUBLE_EQ(steps[0].target.x, 1.0);
  EXPECT_DOUBLE_EQ(steps[0].target.y, 2.0);
  EXPECT_DOUBLE_EQ(steps[0].speed, 0.5);
  EXPECT_DOUBLE_EQ(steps[1].start_time, 10.0);
}

TEST(TraceModel, ParseRejectsGarbageAndDisorder) {
  std::vector<TraceStep> steps;
  std::string error;
  EXPECT_FALSE(TraceModel::parse("0 1 2\n", &steps, &error));  // missing field
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(TraceModel::parse("5 1 1 1\n2 0 0 1\n", &steps, &error));
  EXPECT_NE(error.find("order"), std::string::npos);
}

}  // namespace

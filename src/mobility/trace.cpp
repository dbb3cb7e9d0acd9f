#include "mobility/trace.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "util/assert.hpp"
#include "util/strings.hpp"

namespace p2p::mobility {

TraceModel::TraceModel(geo::Vec2 initial, std::vector<TraceStep> steps)
    : initial_(initial), steps_(std::move(steps)) {
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    P2P_ASSERT_MSG(steps_[i - 1].start_time <= steps_[i].start_time,
                   "trace steps must be sorted by start_time");
  }
}

geo::Vec2 TraceModel::interpolate(const TraceStep& s, geo::Vec2 from,
                                  sim::SimTime t) {
  if (s.speed <= 0.0) return s.target;  // teleport
  const double dist = geo::distance(from, s.target);
  if (dist == 0.0) return s.target;
  const double travel = (t - s.start_time) * s.speed;
  if (travel >= dist) return s.target;
  return from + (s.target - from) * (travel / dist);
}

Leg TraceModel::leg_at(sim::SimTime t) {
  const geo::Vec2 pos = replay(t);
  return {t, std::nextafter(t, std::numeric_limits<sim::SimTime>::infinity()),
          pos, pos, 0.0, false};
}

geo::Vec2 TraceModel::replay(sim::SimTime t) const {
  // Walk the schedule: each step moves the node from wherever the previous
  // steps left it at the step's start_time, until it is preempted by the
  // next step or the query time is reached.
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

bool TraceModel::parse(std::string_view text, std::vector<TraceStep>* steps,
                       std::string* error) {
  P2P_ASSERT(steps != nullptr);
  steps->clear();
  int lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    line = util::trim(line);
    if (line.empty() || line.front() == '#') continue;
    std::istringstream is{std::string(line)};
    TraceStep step;
    if (!(is >> step.start_time >> step.target.x >> step.target.y >> step.speed)) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "line " << lineno << ": expected '<time> <x> <y> <speed>'";
        *error = os.str();
      }
      return false;
    }
    if (!steps->empty() && steps->back().start_time > step.start_time) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "line " << lineno << ": steps out of chronological order";
        *error = os.str();
      }
      return false;
    }
    steps->push_back(step);
  }
  return true;
}

}  // namespace p2p::mobility

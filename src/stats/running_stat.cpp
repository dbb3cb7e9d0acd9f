#include "stats/running_stat.hpp"

#include <cmath>

namespace p2p::stats {

void RunningStat::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStat::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return t_critical_95(n_ - 1) * stddev() / std::sqrt(static_cast<double>(n_));
}

RunningStat RunningStat::restore(std::uint64_t n, double mean, double variance,
                                 double min, double max) noexcept {
  RunningStat s;
  s.n_ = n;
  s.mean_ = mean;
  s.m2_ = n >= 2 ? variance * static_cast<double>(n - 1) : 0.0;
  s.min_ = min;
  s.max_ = max;
  return s;
}

double t_critical_95(std::uint64_t dof) noexcept {
  // Two-sided 95% quantiles of the t distribution.
  static constexpr double kTable[] = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
      2.262,  2.228,  2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110,
      2.101,  2.093,  2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
      2.052,  2.048,  2.045, 2.042};
  if (dof == 0) return 0.0;
  if (dof <= 30) return kTable[dof];
  if (dof <= 40) return 2.021;
  if (dof <= 60) return 2.000;
  if (dof <= 120) return 1.980;
  return 1.960;
}

}  // namespace p2p::stats

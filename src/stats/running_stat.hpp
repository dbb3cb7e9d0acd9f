// Streaming mean/variance (Welford) and Student-t confidence intervals —
// the paper reports averages over 33 repetitions; we additionally report
// 95% CIs in EXPERIMENTS.md.
#pragma once

#include <cstdint>

namespace p2p::stats {

class RunningStat {
 public:
  void add(double x) noexcept;

  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ == 0 ? 0.0 : min_; }
  double max() const noexcept { return n_ == 0 ? 0.0 : max_; }
  double sum() const noexcept { return n_ == 0 ? 0.0 : mean_ * static_cast<double>(n_); }

  /// Half-width of the 95% confidence interval on the mean (Student-t,
  /// two-sided). 0 for n < 2.
  double ci95_halfwidth() const noexcept;

  /// Rebuild a stat from previously serialized moments (experiment cache).
  static RunningStat restore(std::uint64_t n, double mean, double variance,
                             double min, double max) noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided 95% Student-t critical value for the given degrees of
/// freedom (table lookup + asymptote; exact enough for reporting).
double t_critical_95(std::uint64_t dof) noexcept;

}  // namespace p2p::stats

// Statistics: RunningStat (incl. restore), confidence intervals,
// SortedCurve aggregation, Table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

#include "sim/rng.hpp"
#include "stats/fairness.hpp"
#include "stats/running_stat.hpp"
#include "stats/sorted_curve.hpp"
#include "stats/table.hpp"

namespace {

using namespace p2p::stats;

TEST(RunningStat, EmptyIsZero) {
  const RunningStat s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStat, KnownValues) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MatchesNaiveComputation) {
  p2p::sim::RngStream rng(17);
  RunningStat s;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-100.0, 100.0);
    values.push_back(x);
    s.add(x);
  }
  double mean = 0.0;
  for (const double x : values) mean += x;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (const double x : values) var += (x - mean) * (x - mean);
  var /= static_cast<double>(values.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(RunningStat, RestoreRoundTrips) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.5, 9.0}) s.add(x);
  const auto r = RunningStat::restore(s.count(), s.mean(), s.variance(),
                                      s.min(), s.max());
  EXPECT_EQ(r.count(), s.count());
  EXPECT_NEAR(r.mean(), s.mean(), 1e-12);
  EXPECT_NEAR(r.variance(), s.variance(), 1e-12);
  EXPECT_NEAR(r.ci95_halfwidth(), s.ci95_halfwidth(), 1e-12);
}

TEST(TCritical, TableValues) {
  EXPECT_NEAR(t_critical_95(1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical_95(10), 2.228, 1e-3);
  EXPECT_NEAR(t_critical_95(30), 2.042, 1e-3);
  EXPECT_NEAR(t_critical_95(32), 2.021, 1e-2);  // 33 runs -> dof 32
  EXPECT_NEAR(t_critical_95(1000), 1.960, 1e-3);
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);
}

TEST(RunningStat, CiShrinksWithSamples) {
  RunningStat small, large;
  p2p::sim::RngStream rng(5);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform(0.0, 1.0));
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform(0.0, 1.0));
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SortedCurve, SortsWithinRunAndAveragesAcrossRuns) {
  SortedCurve curve;
  curve.add_run({1.0, 5.0, 3.0});  // sorted: 5 3 1
  curve.add_run({7.0, 1.0, 1.0});  // sorted: 7 1 1
  EXPECT_EQ(curve.runs(), 2U);
  ASSERT_EQ(curve.points(), 3U);
  EXPECT_DOUBLE_EQ(curve.mean_at(0), 6.0);
  EXPECT_DOUBLE_EQ(curve.mean_at(1), 2.0);
  EXPECT_DOUBLE_EQ(curve.mean_at(2), 1.0);
}

TEST(SortedCurve, HandlesRunsOfDifferentSizes) {
  SortedCurve curve;
  curve.add_run({4.0, 2.0});
  curve.add_run({9.0, 6.0, 3.0});
  ASSERT_EQ(curve.points(), 3U);
  EXPECT_DOUBLE_EQ(curve.mean_at(0), 6.5);
  EXPECT_DOUBLE_EQ(curve.mean_at(2), 3.0);  // only one run contributes
}

TEST(SortedCurve, MeansVectorMatchesPositions) {
  SortedCurve curve;
  curve.add_run({2.0, 1.0});
  const auto means = curve.means();
  ASSERT_EQ(means.size(), 2U);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 1.0);
}

TEST(SortedCurve, RestoreRoundTrips) {
  SortedCurve curve;
  curve.add_run({3.0, 1.0});
  curve.add_run({5.0, 2.0});
  auto restored = SortedCurve::restore(curve.positions(), curve.runs());
  EXPECT_EQ(restored.runs(), 2U);
  EXPECT_DOUBLE_EQ(restored.mean_at(0), 4.0);
  EXPECT_DOUBLE_EQ(restored.ci95_at(0), curve.ci95_at(0));
}

TEST(Table, PrintAligned) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table table({"a", "b"});
  table.add_row({"plain", "with,comma"});
  table.add_row({"quote\"inside", "multi\nline"});
  std::ostringstream os;
  table.print_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(Table, AddRowValuesFormatsDoubles) {
  Table table({"x", "y"});
  table.add_row_values({1.23456, 2.0}, 2);
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_NE(os.str().find("1.23,2.00"), std::string::npos);
}

TEST(Fairness, JainIndexKnownValues) {
  const std::vector<double> even{5.0, 5.0, 5.0, 5.0};
  EXPECT_NEAR(jain_fairness(even), 1.0, 1e-12);
  const std::vector<double> one_hog{10.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(jain_fairness(one_hog), 0.25, 1e-12);  // 1/n
  const std::vector<double> half{1.0, 1.0, 0.0, 0.0};
  EXPECT_NEAR(jain_fairness(half), 0.5, 1e-12);
}

TEST(Fairness, JainIndexEdgeCases) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(zeros), 1.0);
  const std::vector<double> single{7.0};
  EXPECT_DOUBLE_EQ(jain_fairness(single), 1.0);
}

TEST(Fairness, JainIndexIsScaleInvariant) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b;
  for (const double v : a) b.push_back(v * 100.0);
  EXPECT_NEAR(jain_fairness(a), jain_fairness(b), 1e-12);
}

TEST(Fairness, MoreSkewMeansLowerIndex) {
  const std::vector<double> mild{4.0, 5.0, 6.0};
  const std::vector<double> harsh{1.0, 1.0, 13.0};
  EXPECT_GT(jain_fairness(mild), jain_fairness(harsh));
}

TEST(Table, WriteCsvCreatesFile) {
  Table table({"k"});
  table.add_row({"v"});
  const std::string path = ::testing::TempDir() + "/p2p_table_test.csv";
  ASSERT_TRUE(table.write_csv(path));
  std::ifstream check(path);
  EXPECT_TRUE(check.good());
}

}  // namespace

// Content model: Zipf law frequencies, popularity sampling, placement.
#include <gtest/gtest.h>

#include "content/catalog.hpp"
#include "content/zipf.hpp"
#include "sim/rng.hpp"

namespace {

using namespace p2p;
using content::Placement;
using content::ZipfLaw;

TEST(Zipf, FrequenciesFollowPaperFormula) {
  const ZipfLaw law(20, 0.40);
  EXPECT_DOUBLE_EQ(law.frequency(1), 0.40);
  EXPECT_DOUBLE_EQ(law.frequency(2), 0.20);
  EXPECT_NEAR(law.frequency(3), 0.40 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(law.frequency(20), 0.02);
}

TEST(Zipf, SampleByPopularityStaysInRange) {
  const ZipfLaw law(20, 0.40);
  sim::RngStream rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto f = law.sample_by_popularity(rng);
    EXPECT_GE(f, 1U);
    EXPECT_LE(f, 20U);
  }
}

TEST(Zipf, SampleByPopularityPrefersLowRanks) {
  const ZipfLaw law(10, 1.0);
  sim::RngStream rng(3);
  int rank1 = 0, rank10 = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto f = law.sample_by_popularity(rng);
    if (f == 1) ++rank1;
    if (f == 10) ++rank10;
  }
  // P(1)/P(10) = 10 under the 1/k law.
  EXPECT_GT(rank1, 5 * rank10);
}

TEST(Zipf, SingleFileCatalog) {
  const ZipfLaw law(1, 0.40);
  sim::RngStream rng(3);
  EXPECT_EQ(law.sample_by_popularity(rng), 1U);
  EXPECT_DOUBLE_EQ(law.frequency(1), 0.40);
}

TEST(Placement, ExactQuotaMatchesRoundedFrequencies) {
  const ZipfLaw law(20, 0.40);
  const Placement placement(law, 100, sim::RngStream(7), /*exact_quota=*/true);
  EXPECT_EQ(placement.copies_of(1), 40U);
  EXPECT_EQ(placement.copies_of(2), 20U);
  EXPECT_EQ(placement.copies_of(4), 10U);
  // Tail files still exist somewhere (quota is clamped to >= 1).
  for (std::uint32_t k = 1; k <= 20; ++k) {
    EXPECT_GE(placement.copies_of(k), 1U) << "file " << k;
  }
}

TEST(Placement, HoldsAgreesWithCopies) {
  const ZipfLaw law(10, 0.40);
  const Placement placement(law, 50, sim::RngStream(9));
  for (content::FileId k = 1; k <= 10; ++k) {
    std::uint32_t holders = 0;
    for (std::uint32_t m = 0; m < 50; ++m) {
      if (placement.holds(m, k)) ++holders;
    }
    EXPECT_EQ(holders, placement.copies_of(k)) << "file " << k;
  }
}

TEST(Placement, BernoulliModeIsApproximatelyCalibrated) {
  const ZipfLaw law(5, 0.40);
  const Placement placement(law, 2000, sim::RngStream(11),
                            /*exact_quota=*/false);
  // 40% of 2000 = 800; Bernoulli gives binomial spread (sd ~ 22).
  EXPECT_NEAR(placement.copies_of(1), 800U, 100U);
}

TEST(Placement, DeterministicForSameSeed) {
  const ZipfLaw law(20, 0.40);
  const Placement a(law, 80, sim::RngStream(5));
  const Placement b(law, 80, sim::RngStream(5));
  for (std::uint32_t m = 0; m < 80; ++m) {
    for (content::FileId k = 1; k <= 20; ++k) {
      EXPECT_EQ(a.holds(m, k), b.holds(m, k)) << "member " << m;
    }
  }
}

TEST(Placement, DifferentSeedsDiffer) {
  const ZipfLaw law(20, 0.40);
  const Placement a(law, 80, sim::RngStream(5));
  const Placement b(law, 80, sim::RngStream(6));
  bool any_difference = false;
  for (std::uint32_t m = 0; m < 80 && !any_difference; ++m) {
    for (content::FileId k = 1; k <= 20; ++k) {
      any_difference = any_difference || a.holds(m, k) != b.holds(m, k);
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Placement, ZeroMembersIsEmptyButValid) {
  const ZipfLaw law(5, 0.40);
  const Placement placement(law, 0, sim::RngStream(1));
  EXPECT_EQ(placement.num_members(), 0U);
  EXPECT_EQ(placement.copies_of(1), 0U);
}

}  // namespace

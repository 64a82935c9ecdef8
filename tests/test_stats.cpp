// Unit tests for empirical distributions and streaming histograms.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/empirical_distribution.hpp"
#include "stats/histogram01.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

TEST(EmpiricalDistribution, SortsAndSizes) {
    EmpiricalDistribution dist({0.5, 0.1, 0.9});
    const auto samples = dist.sorted_samples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_DOUBLE_EQ(samples[0], 0.1);
    EXPECT_DOUBLE_EQ(samples[2], 0.9);
    EXPECT_EQ(dist.size(), 3u);
}

TEST(EmpiricalDistribution, RejectsOutOfRange) {
    EXPECT_THROW(EmpiricalDistribution({1.5}), contract_error);
    EmpiricalDistribution dist;
    EXPECT_THROW(dist.add(-0.1), contract_error);
}

TEST(EmpiricalDistribution, IcdIsSurvivalFunction) {
    EmpiricalDistribution dist({0.2, 0.4, 0.4, 0.8});
    EXPECT_DOUBLE_EQ(dist.icd(0.0), 1.0);
    EXPECT_DOUBLE_EQ(dist.icd(0.2), 0.75);   // strictly greater than 0.2
    EXPECT_DOUBLE_EQ(dist.icd(0.3), 0.75);
    EXPECT_DOUBLE_EQ(dist.icd(0.4), 0.25);
    EXPECT_DOUBLE_EQ(dist.icd(0.8), 0.0);
    EXPECT_DOUBLE_EQ(dist.icd(1.0), 0.0);
}

TEST(EmpiricalDistribution, IcdPointsMonotone) {
    EmpiricalDistribution dist({0.1, 0.5, 0.5, 0.7, 1.0});
    const auto points = dist.icd_points();
    ASSERT_GE(points.size(), 2u);
    EXPECT_DOUBLE_EQ(points.front().first, 0.0);
    EXPECT_DOUBLE_EQ(points.back().first, 1.0);
    EXPECT_DOUBLE_EQ(points.back().second, 0.0);
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_GE(points[i].first, points[i - 1].first);
        EXPECT_LE(points[i].second, points[i - 1].second);  // ICD non-increasing
    }
}

TEST(EmpiricalDistribution, MeanAndStddev) {
    EmpiricalDistribution dist({0.0, 1.0});
    EXPECT_DOUBLE_EQ(dist.mean(), 0.5);
    EXPECT_DOUBLE_EQ(dist.population_stddev(), 0.5);
}

TEST(Histogram01, CountsLandInRightBins) {
    Histogram01 hist(10);
    hist.add(0.05);   // bin 0: (0, 0.1]
    hist.add(0.1);    // bin 0 (right edge inclusive)
    hist.add(0.1001); // bin 1
    hist.add(1.0);    // bin 9
    EXPECT_EQ(hist.counts()[0], 2u);
    EXPECT_EQ(hist.counts()[1], 1u);
    EXPECT_EQ(hist.counts()[9], 1u);
    EXPECT_EQ(hist.total(), 4u);
}

TEST(Histogram01, ClampsOutOfRange) {
    Histogram01 hist(4);
    hist.add(-0.5);
    hist.add(2.0);
    EXPECT_EQ(hist.counts()[0], 1u);
    EXPECT_EQ(hist.counts()[3], 1u);
}

TEST(Histogram01, NanSamplesAreDroppedNotWrittenOutOfBounds) {
    // Regression: a NaN fell through both range guards into
    // static_cast<size_t>(ceil(NaN)) - 1 — an out-of-bounds write (UB).
    Histogram01 hist(4);
    hist.add(0.5);
    hist.add(std::numeric_limits<double>::quiet_NaN());
    hist.add(std::nan("1"), 7);
    EXPECT_EQ(hist.total(), 1u);  // only the finite sample counted
    EXPECT_EQ(hist.counts()[1], 1u);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.5);
    EXPECT_FALSE(std::isnan(hist.population_stddev()));
}

TEST(Histogram01, InfinitiesClampedInBinsAndMoments) {
    Histogram01 hist(4);
    hist.add(std::numeric_limits<double>::infinity());
    hist.add(-std::numeric_limits<double>::infinity());
    EXPECT_EQ(hist.counts()[3], 1u);
    EXPECT_EQ(hist.counts()[0], 1u);
    // Moments must stay finite: pre-fix, sum_ += inf poisoned the mean.
    EXPECT_DOUBLE_EQ(hist.mean(), 0.5);
    EXPECT_TRUE(std::isfinite(hist.population_stddev()));
}

TEST(Histogram01, WeightedAdd) {
    Histogram01 hist(4);
    hist.add(0.6, 5);
    EXPECT_EQ(hist.total(), 5u);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.6);
}

TEST(Histogram01, MomentsAreExactNotBinned) {
    Histogram01 hist(4);  // coarse bins, exact moments
    hist.add(0.21);
    hist.add(0.29);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.25);
    EXPECT_NEAR(hist.population_stddev(), 0.04, 1e-12);
}

TEST(Histogram01, SurvivalAtEdges) {
    Histogram01 hist(4);
    hist.add(0.2);  // bin 0
    hist.add(0.6);  // bin 2
    hist.add(0.9);  // bin 3
    const auto surv = hist.survival_at_edges();
    ASSERT_EQ(surv.size(), 5u);
    EXPECT_DOUBLE_EQ(surv[0], 1.0);
    EXPECT_DOUBLE_EQ(surv[1], 2.0 / 3.0);  // above 0.25: the 0.6 and 0.9
    EXPECT_DOUBLE_EQ(surv[2], 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(surv[3], 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(surv[4], 0.0);
}

TEST(Histogram01, IcdPointsStartAtOneEndAtZero) {
    Histogram01 hist(16);
    Rng rng(5);
    for (int i = 0; i < 100; ++i) hist.add(rng.uniform01() * 0.999 + 0.001);
    const auto points = hist.icd_points();
    EXPECT_DOUBLE_EQ(points.front().second, 1.0);
    EXPECT_DOUBLE_EQ(points.back().first, 1.0);
    EXPECT_DOUBLE_EQ(points.back().second, 0.0);
}

TEST(Histogram01, EmptyHistogram) {
    Histogram01 hist(8);
    EXPECT_TRUE(hist.empty());
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
    EXPECT_DOUBLE_EQ(hist.population_stddev(), 0.0);
    const auto surv = hist.survival_at_edges();
    for (double s : surv) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(Histogram01, DefaultBinCountDivisibleByShannonSlots) {
    // Section 7 uses 5, 10, 20 and 100 slots; exact regrouping needs
    // divisibility.
    EXPECT_EQ(Histogram01::kDefaultBins % 5, 0u);
    EXPECT_EQ(Histogram01::kDefaultBins % 10, 0u);
    EXPECT_EQ(Histogram01::kDefaultBins % 20, 0u);
    EXPECT_EQ(Histogram01::kDefaultBins % 100, 0u);
}

}  // namespace
}  // namespace natscale

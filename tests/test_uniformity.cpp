// Tests of the five uniformity metrics (paper Sections 4 and 7): closed-form
// values, maximality at the uniform density, histogram-vs-exact
// convergence, and the one-pass histogram scorer against the per-metric
// reference loops (testing/reference_uniformity.hpp), bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/uniformity.hpp"
#include "testing/reference_uniformity.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

EmpiricalDistribution uniform_samples(std::size_t count) {
    // Deterministic, maximally spread samples: (i + 1/2) / count.
    std::vector<double> samples(count);
    for (std::size_t i = 0; i < count; ++i) {
        samples[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
    }
    return EmpiricalDistribution(std::move(samples));
}

TEST(IntegrateAbsDeviation, ClosedFormPieces) {
    // c = 1: |1 - (1 - l)| = l over [0,1] -> 1/2.
    EXPECT_NEAR(integrate_abs_deviation(0.0, 1.0, 1.0), 0.5, 1e-12);
    // c = 0: |0 - (1 - l)| = 1 - l over [0,1] -> 1/2.
    EXPECT_NEAR(integrate_abs_deviation(0.0, 1.0, 0.0), 0.5, 1e-12);
    // c = 1/2 over [0,1]: crossing at 1/2, two triangles of area 1/8.
    EXPECT_NEAR(integrate_abs_deviation(0.0, 1.0, 0.5), 0.25, 1e-12);
    // Sub-interval fully left of the crossing: c = 0.5 on [0, 0.25].
    EXPECT_NEAR(integrate_abs_deviation(0.0, 0.25, 0.5),
                0.5 * 0.25 - 0.25 * 0.25 / 2.0 + 0.0, 1e-12);
    EXPECT_THROW(integrate_abs_deviation(0.5, 0.4, 0.5), contract_error);
}

TEST(MkDistance, PointMassAtOneIsMaximallyFar) {
    // All occupancy rates equal to 1 (total aggregation): ICD is 1 on [0,1),
    // area |1 - (1-l)| integrates to 1/2; proximity 0.
    EmpiricalDistribution dist({1.0, 1.0, 1.0});
    EXPECT_NEAR(mk_distance_to_uniform(dist), 0.5, 1e-12);
    EXPECT_NEAR(mk_proximity(dist), 0.0, 1e-12);
}

TEST(MkDistance, PointMassNearZeroIsAlsoFar) {
    EmpiricalDistribution dist({1e-9, 1e-9});
    EXPECT_NEAR(mk_distance_to_uniform(dist), 0.5, 1e-6);
}

TEST(MkDistance, UniformSamplesApproachZero) {
    EXPECT_LT(mk_distance_to_uniform(uniform_samples(1000)), 1e-3);
    EXPECT_GT(mk_proximity(uniform_samples(1000)), 0.499);
}

TEST(MkDistance, MoreUniformBeatsLessUniform) {
    // Uniform vs everything piled in the upper half.
    std::vector<double> upper;
    for (int i = 0; i < 100; ++i) upper.push_back(0.5 + 0.005 * i);
    EXPECT_LT(mk_distance_to_uniform(uniform_samples(100)),
              mk_distance_to_uniform(EmpiricalDistribution(std::move(upper))));
}

TEST(MkDistance, EmptyDistributionIsFar) {
    EmpiricalDistribution dist;
    EXPECT_DOUBLE_EQ(mk_distance_to_uniform(dist), 0.5);
}

TEST(StdDeviation, UniformLimitIsOneOverSqrt12) {
    EXPECT_NEAR(uniform_samples(10'000).population_stddev(), 1.0 / std::sqrt(12.0), 1e-3);
}

TEST(VariationCoefficient, FavorsSmallMeans) {
    // The paper rejects this metric because tiny-mean distributions win.
    EmpiricalDistribution tiny({0.001, 0.002, 0.001, 0.03});
    const double cv_tiny = variation_coefficient(tiny);
    const double cv_uniform = variation_coefficient(uniform_samples(100));
    EXPECT_GT(cv_tiny, cv_uniform);
}

TEST(VariationCoefficient, ZeroMeanGivesZero) {
    EmpiricalDistribution zeros({0.0, 0.0});
    EXPECT_DOUBLE_EQ(variation_coefficient(zeros), 0.0);
}

TEST(ShannonEntropy, UniformReachesLogK) {
    const auto dist = uniform_samples(10'000);
    EXPECT_NEAR(shannon_entropy(dist, 10), std::log(10.0), 1e-3);
    EXPECT_NEAR(shannon_entropy(dist, 5), std::log(5.0), 1e-3);
}

TEST(ShannonEntropy, PointMassIsZero) {
    EmpiricalDistribution dist({0.35, 0.35, 0.35});
    EXPECT_DOUBLE_EQ(shannon_entropy(dist, 10), 0.0);
}

TEST(ShannonEntropy, DependsOnSlotCount) {
    // The paper's criticism: the returned scale depends on k.  With two
    // clusters inside one coarse slot, k=2 sees less entropy than k=20.
    EmpiricalDistribution dist({0.1, 0.2, 0.3, 0.4});
    EXPECT_LT(shannon_entropy(dist, 2), shannon_entropy(dist, 20));
}

TEST(Cre, UniformLimitIsOneQuarter) {
    EXPECT_NEAR(cumulative_residual_entropy(uniform_samples(10'000)), 0.25, 1e-3);
}

TEST(Cre, PointMassesScoreLow) {
    EmpiricalDistribution at_one({1.0, 1.0});
    EXPECT_NEAR(cumulative_residual_entropy(at_one), 0.0, 1e-12);
    // Mass at 0.5: CRE = -integral_0^0.5 1*ln(1) - ... = 0 (survival is 0/1).
    EmpiricalDistribution at_half({0.5, 0.5});
    EXPECT_NEAR(cumulative_residual_entropy(at_half), 0.0, 1e-12);
}

TEST(Cre, EmptyDistributionIsZero) {
    EXPECT_DOUBLE_EQ(cumulative_residual_entropy(EmpiricalDistribution{}), 0.0);
}

TEST(MetricNames, AllDistinct) {
    EXPECT_EQ(metric_name(UniformityMetric::mk_proximity), "M-K proximity");
    EXPECT_NE(metric_name(UniformityMetric::std_deviation),
              metric_name(UniformityMetric::cre));
    EXPECT_NE(metric_name(UniformityMetric::shannon_entropy),
              metric_name(UniformityMetric::variation_coefficient));
}

TEST(ComputeAllMetrics, ScoreOfRoundTrips) {
    Histogram01 hist(100);
    Rng rng(3);
    for (int i = 0; i < 1'000; ++i) hist.add(0.001 + 0.999 * rng.uniform01());
    const auto scores = compute_all_metrics(hist, 10);
    EXPECT_DOUBLE_EQ(score_of(scores, UniformityMetric::mk_proximity), scores.mk_proximity);
    EXPECT_DOUBLE_EQ(score_of(scores, UniformityMetric::std_deviation), scores.std_deviation);
    EXPECT_DOUBLE_EQ(score_of(scores, UniformityMetric::variation_coefficient),
                     scores.variation_coefficient);
    EXPECT_DOUBLE_EQ(score_of(scores, UniformityMetric::shannon_entropy),
                     scores.shannon_entropy);
    EXPECT_DOUBLE_EQ(score_of(scores, UniformityMetric::cre), scores.cre);
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Histograms of every shape the one-pass scorer must handle: empty, one
/// sample, all mass in one bin (first, middle, last), and random mixtures
/// with empty runs, spikes and counts far above one per sample.
std::vector<Histogram01> scorer_cases(std::size_t bins, Rng& rng) {
    std::vector<Histogram01> cases(1, Histogram01(bins));
    cases.emplace_back(bins);
    cases.back().add(0.37);
    for (const double x : {0.0, 0.5, 1.0}) {
        cases.emplace_back(bins);
        cases.back().add(x, 1000);
    }
    for (int draw = 0; draw < 4; ++draw) {
        Histogram01 hist(bins);
        const std::size_t samples = 1 + rng.uniform_index(3000);
        for (std::size_t i = 0; i < samples; ++i) {
            const double pick = rng.uniform01();
            if (pick < 0.2) {
                hist.add(1.0);
            } else if (pick < 0.3) {
                hist.add(0.01 + 0.02 * rng.uniform01(), std::uint64_t{1} << 40);
            } else {
                hist.add(rng.uniform01());
            }
        }
        cases.push_back(std::move(hist));
    }
    return cases;
}

TEST(ComputeAllMetrics, OnePassMatchesTheReferenceLoopsBitForBit) {
    Rng rng(41);
    for (const std::size_t bins : {1, 7, 360, 3600}) {
        const std::vector<Histogram01> cases = scorer_cases(bins, rng);
        const std::size_t slot_counts[] = {1, 3, 10, bins + 1};
        for (const std::size_t slots : slot_counts) {
            for (std::size_t i = 0; i < cases.size(); ++i) {
                const Histogram01& hist = cases[i];
                const UniformityScores scores = compute_all_metrics(hist, slots);
                const std::string where = "bins=" + std::to_string(bins) +
                                          " slots=" + std::to_string(slots) +
                                          " case=" + std::to_string(i);
                EXPECT_TRUE(same_bits(scores.mk_proximity, testing::mk_proximity(hist))) << where;
                EXPECT_TRUE(same_bits(scores.std_deviation, hist.population_stddev())) << where;
                EXPECT_TRUE(same_bits(scores.variation_coefficient,
                                      testing::variation_coefficient(hist)))
                    << where;
                EXPECT_TRUE(same_bits(scores.shannon_entropy,
                                      testing::shannon_entropy(hist, slots)))
                    << where;
                EXPECT_TRUE(same_bits(scores.cre, testing::cumulative_residual_entropy(hist)))
                    << where;
            }
        }
    }
}

// Histogram metrics must converge to the exact sample metrics as the bin
// count grows; with samples aligned on bin edges they agree exactly.
class HistogramVsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramVsExact, MetricsAgreeWithinBinWidth) {
    Rng rng(GetParam() * 97 + 11);
    const std::size_t bins = 2000;
    Histogram01 hist(bins);
    EmpiricalDistribution exact;
    const int count = 2'000;
    for (int i = 0; i < count; ++i) {
        // Mixture: uniform + spikes at 1 and near 0, like real occupancy data.
        double x;
        const double pick = rng.uniform01();
        if (pick < 0.2) {
            x = 1.0;
        } else if (pick < 0.4) {
            x = 0.01 + 0.02 * rng.uniform01();
        } else {
            x = rng.uniform01();
        }
        if (x <= 0.0) x = 1e-9;
        hist.add(x);
        exact.add(x);
    }
    const double tolerance = 2.0 / static_cast<double>(bins) + 1e-9;
    const UniformityScores scores = compute_all_metrics(hist, 10);
    EXPECT_NEAR(scores.mk_proximity, mk_proximity(exact), tolerance);
    EXPECT_NEAR(scores.cre, cumulative_residual_entropy(exact), tolerance * 4);
    EXPECT_NEAR(scores.std_deviation, exact.population_stddev(), 1e-9);
    EXPECT_NEAR(scores.variation_coefficient, variation_coefficient(exact), 1e-9);
    EXPECT_NEAR(scores.shannon_entropy, shannon_entropy(exact, 10), 0.02);
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, HistogramVsExact, ::testing::Range<std::uint64_t>(0, 10));

TEST(HistogramMetrics, EmptyHistogramConventions) {
    const UniformityScores scores = compute_all_metrics(Histogram01(100), 10);
    EXPECT_DOUBLE_EQ(scores.mk_proximity, 0.0);  // M-K distance 1/2
    EXPECT_DOUBLE_EQ(scores.std_deviation, 0.0);
    EXPECT_DOUBLE_EQ(scores.variation_coefficient, 0.0);
    EXPECT_DOUBLE_EQ(scores.shannon_entropy, 0.0);
    EXPECT_DOUBLE_EQ(scores.cre, 0.0);
}

}  // namespace
}  // namespace natscale

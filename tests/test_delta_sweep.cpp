// Tests of the batched multi-Delta sweep engine: the batched evaluation is
// bit-identical to the sequential per-Delta path (one occupancy_histogram
// scan per period, scored by score_delta_point), and results are
// independent of the thread count.
#include <gtest/gtest.h>

#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "gen/registry.hpp"

namespace natscale {
namespace {

LinkStream seeded_stream(std::uint64_t seed) {
    return gen::generate_stream("uniform:n=24,links=4,T=20000", seed).stream;
}

void expect_identical_point(const DeltaPoint& a, const DeltaPoint& b) {
    EXPECT_EQ(a.delta, b.delta);
    EXPECT_EQ(a.num_trips, b.num_trips);
    EXPECT_EQ(a.occupancy_mean, b.occupancy_mean);  // bitwise: same fp order
    EXPECT_EQ(a.scores.mk_proximity, b.scores.mk_proximity);
    EXPECT_EQ(a.scores.std_deviation, b.scores.std_deviation);
    EXPECT_EQ(a.scores.variation_coefficient, b.scores.variation_coefficient);
    EXPECT_EQ(a.scores.shannon_entropy, b.scores.shannon_entropy);
    EXPECT_EQ(a.scores.cre, b.scores.cre);
}

TEST(DeltaSweep, BatchedMatchesLegacyEvaluateDeltaBitwise) {
    const auto stream = seeded_stream(42);
    const auto grid = geometric_delta_grid(1, stream.period_end(), 20);

    const SweepConfig config;
    DeltaSweepEngine engine(stream, sweep_options_of(config));
    std::vector<Histogram01> histograms;
    const auto batched = engine.evaluate(grid, &histograms);

    ASSERT_EQ(batched.size(), grid.size());
    ASSERT_EQ(histograms.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const Histogram01 sequential =
            occupancy_histogram(stream, grid[i], config.histogram_bins);
        expect_identical_point(batched[i],
                               score_delta_point(grid[i], sequential, config.shannon_slots));
        EXPECT_EQ(histograms[i].counts(), sequential.counts());
        EXPECT_EQ(histograms[i].total(), batched[i].num_trips);
    }
}

TEST(DeltaSweep, ThreadCountDoesNotChangeResults) {
    const auto stream = seeded_stream(7);
    const auto grid = geometric_delta_grid(1, stream.period_end(), 24);

    DeltaSweepOptions single;
    single.num_threads = 1;
    DeltaSweepEngine engine1(stream, single);
    std::vector<Histogram01> hist1;
    const auto points1 = engine1.evaluate(grid, &hist1);

    for (std::size_t threads : {2u, 4u, 7u, 8u}) {
        DeltaSweepOptions multi;
        multi.num_threads = threads;
        DeltaSweepEngine engineN(stream, multi);
        std::vector<Histogram01> histN;
        const auto pointsN = engineN.evaluate(grid, &histN);
        ASSERT_EQ(pointsN.size(), points1.size());
        for (std::size_t i = 0; i < points1.size(); ++i) {
            expect_identical_point(pointsN[i], points1[i]);
            EXPECT_EQ(histN[i].counts(), hist1[i].counts());
        }
    }
}

TEST(DeltaSweep, FindSaturationScaleIdenticalAcrossThreadCounts) {
    const auto stream = seeded_stream(3);

    SweepConfig options;
    options.coarse_points = 16;
    options.refine_rounds = 1;
    options.refine_points = 5;
    options.num_threads = 1;
    const SaturationResult single = find_saturation_scale(stream, options);

    options.num_threads = 4;
    const SaturationResult multi = find_saturation_scale(stream, options);

    EXPECT_EQ(single.gamma, multi.gamma);
    ASSERT_EQ(single.curve.size(), multi.curve.size());
    for (std::size_t i = 0; i < single.curve.size(); ++i) {
        expect_identical_point(single.curve[i], multi.curve[i]);
    }
    expect_identical_point(single.at_gamma, multi.at_gamma);
    EXPECT_EQ(single.gamma_histogram.counts(), multi.gamma_histogram.counts());
    EXPECT_EQ(single.gamma_histogram.total(), multi.gamma_histogram.total());
}

TEST(DeltaSweep, GammaHistogramMatchesLegacyReEvaluation) {
    // The search retains the gamma histogram from the sweep instead of
    // re-evaluating; it must equal a sequential re-evaluation at gamma.
    const auto stream = seeded_stream(19);
    SweepConfig options;
    options.coarse_points = 12;
    options.refine_rounds = 1;
    const SaturationResult result = find_saturation_scale(stream, options);

    EXPECT_EQ(result.gamma_histogram.counts(),
              occupancy_histogram(stream, result.gamma, options.histogram_bins).counts());
}

TEST(DeltaSweep, EmptyGridAndDuplicateDeltas) {
    const auto stream = seeded_stream(1);
    DeltaSweepEngine engine(stream);
    EXPECT_TRUE(engine.evaluate({}).empty());

    const std::vector<Time> grid = {100, 100, 250};
    const auto points = engine.evaluate(grid);
    ASSERT_EQ(points.size(), 3u);
    expect_identical_point(points[0], points[1]);
    EXPECT_EQ(points[2].delta, 250);
}

}  // namespace
}  // namespace natscale

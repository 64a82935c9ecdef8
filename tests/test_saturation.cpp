// Tests of the occupancy method's saturation-scale search (Sections 4, 6, 7).
#include <gtest/gtest.h>

#include <algorithm>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/saturation.hpp"
#include "gen/registry.hpp"
#include "util/rng.hpp"
#include "util/contracts.hpp"

namespace natscale {
namespace {

TEST(DeltaGrid, GeometricCoversRangeDistinct) {
    const auto grid = geometric_delta_grid(1, 100'000, 30);
    ASSERT_GE(grid.size(), 10u);
    EXPECT_EQ(grid.front(), 1);
    EXPECT_EQ(grid.back(), 100'000);
    EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
    EXPECT_EQ(std::adjacent_find(grid.begin(), grid.end()), grid.end());
}

TEST(DeltaGrid, GeometricCollapsesSmallRanges) {
    const auto grid = geometric_delta_grid(1, 5, 30);
    EXPECT_LE(grid.size(), 5u);  // only 5 distinct integers exist
    EXPECT_EQ(grid.front(), 1);
    EXPECT_EQ(grid.back(), 5);
}

TEST(DeltaGrid, LinearSpacing) {
    const auto grid = linear_delta_grid(10, 20, 11);
    ASSERT_EQ(grid.size(), 11u);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(grid[i], 10 + static_cast<Time>(i));
    }
}

TEST(DeltaGrid, SingletonRange) {
    EXPECT_EQ(geometric_delta_grid(7, 7, 10), std::vector<Time>{7});
}

TEST(DeltaGrid, RefinementRoundGridsSatisfyMergePreconditions) {
    // find_saturation_scale inserts every point of the geometric coarse grid
    // and of the linear refinement grids around the running optimum into its
    // delta-sorted curve, skipping deltas already there; a grid repeating a
    // delta would evaluate and insert it twice, so every grid either side
    // can produce must arrive sorted and free of duplicates.
    for (const Time lo : {Time{1}, Time{7}, Time{999}}) {
        for (const Time hi : {lo, lo + 1, lo + 2, lo + 100, lo + 99'999}) {
            for (const std::size_t count : {std::size_t{2}, std::size_t{3},
                                            std::size_t{12}, std::size_t{48}}) {
                for (const auto& grid : {geometric_delta_grid(lo, hi, count),
                                         linear_delta_grid(lo, hi, count)}) {
                    EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
                    EXPECT_EQ(std::adjacent_find(grid.begin(), grid.end()), grid.end());
                }
            }
        }
    }
    // And the search itself runs its refinement rounds without tripping a
    // contract, into a curve of strictly increasing deltas (exercised on a
    // real stream).
    SweepConfig options;
    options.coarse_points = 24;
    options.refine_rounds = 3;
    options.refine_points = 6;
    options.histogram_bins = 400;
    const auto stream = gen::generate_stream("uniform:n=12,links=6,T=10000", 9).stream;
    SaturationResult result;
    ASSERT_NO_THROW(result = find_saturation_scale(stream, options));
    EXPECT_EQ(std::adjacent_find(result.curve.begin(), result.curve.end(),
                                 [](const DeltaPoint& a, const DeltaPoint& b) {
                                     return a.delta >= b.delta;
                                 }),
              result.curve.end());
}

TEST(DeltaGrid, RejectsBadArguments) {
    EXPECT_THROW(geometric_delta_grid(0, 10, 5), contract_error);
    EXPECT_THROW(geometric_delta_grid(10, 5, 5), contract_error);
    EXPECT_THROW(linear_delta_grid(1, 10, 1), contract_error);
}

SweepConfig quick_options() {
    SweepConfig options;
    options.coarse_points = 24;
    options.refine_rounds = 1;
    options.refine_points = 6;
    options.histogram_bins = 400;
    return options;
}

TEST(Saturation, FindsInteriorMaximumOnUniformStream) {
    constexpr Time period_end = 20'000;
    const auto stream =
        gen::generate_stream("uniform:n=20,links=10,T=20000", /*seed=*/7).stream;
    const auto result = find_saturation_scale(stream, quick_options());

    EXPECT_GT(result.gamma, 1);
    EXPECT_LT(result.gamma, period_end);
    // Curve sorted, covering the full range.
    EXPECT_TRUE(std::is_sorted(result.curve.begin(), result.curve.end(),
                               [](const DeltaPoint& a, const DeltaPoint& b) {
                                   return a.delta < b.delta;
                               }));
    EXPECT_EQ(result.curve.front().delta, 1);
    EXPECT_EQ(result.curve.back().delta, period_end);
    // gamma realizes the maximum of the selected metric over the curve.
    for (const auto& point : result.curve) {
        EXPECT_LE(score_of(point.scores, result.metric),
                  score_of(result.at_gamma.scores, result.metric) + 1e-12);
    }
    EXPECT_EQ(result.gamma, result.at_gamma.delta);
    EXPECT_EQ(result.gamma_histogram.total(), result.at_gamma.num_trips);
}

TEST(Saturation, GammaScalesWithIntercontactTime) {
    // Fig. 6 left: for time-uniform networks gamma is proportional to the
    // mean inter-contact time; doubling it should roughly double gamma.
    const auto sparse =
        gen::generate_stream("uniform:n=16,links=5,T=30000", 11).stream;
    // 4x the activity -> gamma ~4x smaller
    const auto dense = gen::generate_stream("uniform:n=16,links=20,T=30000", 11).stream;

    const auto gamma_sparse = find_saturation_scale(sparse, quick_options()).gamma;
    const auto gamma_dense = find_saturation_scale(dense, quick_options()).gamma;

    EXPECT_GT(gamma_sparse, gamma_dense);
    const double ratio = static_cast<double>(gamma_sparse) / static_cast<double>(gamma_dense);
    EXPECT_GT(ratio, 2.0);  // ideal 4.0; generous tolerance for grid noise
    EXPECT_LT(ratio, 8.0);
}

TEST(Saturation, MetricCurveRisesThenFalls) {
    const auto stream = gen::generate_stream("uniform:n=16,links=8,T=20000", 3).stream;
    const auto result = find_saturation_scale(stream, quick_options());
    const double at_ends = std::max(score_of(result.curve.front().scores, result.metric),
                                    score_of(result.curve.back().scores, result.metric));
    EXPECT_GT(score_of(result.at_gamma.scores, result.metric), at_ends);
}

/// A stream in the regime of the paper's traces: many more node pairs than
/// directly-linked pairs, so minimal trips are dominated by the indirect
/// (multi-hop) pairs.  In this regime the paper observes that all metrics
/// except the variation coefficient select nearly the same gamma (Section 7).
LinkStream paper_like_stream(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < 300; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(100));
        NodeId v = static_cast<NodeId>(rng.uniform_index(100));
        if (u == v) v = (v + 1) % 100;
        pairs.emplace_back(u, v);
    }
    std::vector<Event> events;
    for (int i = 0; i < 1'500; ++i) {
        const auto& [u, v] = pairs[rng.uniform_index(pairs.size())];
        events.push_back({u, v, rng.uniform_int(0, 49'999)});
    }
    return LinkStream(std::move(events), 100, 50'000, false);
}

TEST(Saturation, GammaForEachMetricInsideRange) {
    const auto stream = paper_like_stream(5);
    const auto result = find_saturation_scale(stream, quick_options());
    for (UniformityMetric metric :
         {UniformityMetric::mk_proximity, UniformityMetric::std_deviation,
          UniformityMetric::shannon_entropy, UniformityMetric::cre}) {
        const Time gamma = result.gamma_for(metric);
        EXPECT_GE(gamma, 1);
        EXPECT_LE(gamma, stream.period_end());
    }
    // Section 7: the non-CV metrics agree on the order of magnitude.
    const Time mk = result.gamma_for(UniformityMetric::mk_proximity);
    const Time sd = result.gamma_for(UniformityMetric::std_deviation);
    const Time sh = result.gamma_for(UniformityMetric::shannon_entropy);
    const Time cre = result.gamma_for(UniformityMetric::cre);
    EXPECT_LT(std::max({mk, sd, sh, cre}), 10 * std::min({mk, sd, sh, cre}));
}

TEST(Saturation, VariationCoefficientPrefersTinyDeltas) {
    // Section 7: the CV metric is unsuitable — it selects (near-)minimal
    // aggregation periods.
    const auto result = find_saturation_scale(paper_like_stream(5), quick_options());
    EXPECT_LT(100 * result.gamma_for(UniformityMetric::variation_coefficient),
              result.gamma_for(UniformityMetric::mk_proximity));
}

/// find_saturation_scale's own evaluator, for searches over explicit bounds.
GridEvaluator engine_evaluator(DeltaSweepEngine& engine) {
    return [&engine](std::span<const Time> grid, std::vector<Histogram01>* histograms) {
        return engine.evaluate(grid, histograms);
    };
}

TEST(Saturation, ExplicitRangeHonoured) {
    const auto options = quick_options();
    const auto stream = gen::generate_stream("uniform:n=10,links=5,T=5000", 1).stream;
    DeltaSweepEngine engine(stream, sweep_options_of(options));
    const auto result = find_saturation_scale_with(engine_evaluator(engine), 10, 1'000, options);
    EXPECT_EQ(result.curve.front().delta, 10);
    EXPECT_EQ(result.curve.back().delta, 1'000);

    // min_delta alone raises the lower bound; the search still reaches T.
    auto from_ten = options;
    from_ten.min_delta = 10;
    const auto to_period = find_saturation_scale(stream, from_ten);
    EXPECT_EQ(to_period.curve.front().delta, 10);
    EXPECT_EQ(to_period.curve.back().delta, stream.period_end());
}

TEST(Saturation, RefinementOnlyAddsPoints) {
    const auto stream = gen::generate_stream("uniform:n=10,links=5,T=5000", 2).stream;
    auto coarse_only = quick_options();
    coarse_only.refine_rounds = 0;
    auto refined = quick_options();
    refined.refine_rounds = 2;
    const auto a = find_saturation_scale(stream, coarse_only);
    const auto b = find_saturation_scale(stream, refined);
    EXPECT_GE(b.curve.size(), a.curve.size());
    EXPECT_GE(score_of(b.at_gamma.scores, b.metric), score_of(a.at_gamma.scores, a.metric));
}

TEST(Saturation, RejectsEmptyStreamAndBadOptions) {
    LinkStream empty({}, 3, 100);
    EXPECT_THROW(find_saturation_scale(empty, quick_options()), contract_error);

    const auto stream = gen::generate_stream("uniform:n=5,links=2,T=100", 1).stream;
    SweepConfig bad;
    bad.coarse_points = 1;
    EXPECT_THROW(find_saturation_scale(stream, bad), contract_error);
    DeltaSweepEngine engine(stream, sweep_options_of(quick_options()));
    EXPECT_THROW(find_saturation_scale_with(engine_evaluator(engine), 50, 10, quick_options()),
                 contract_error);
    SweepConfig beyond_period;
    beyond_period.min_delta = 101;
    EXPECT_THROW(find_saturation_scale(stream, beyond_period), contract_error);
}

TEST(Saturation, SingleEventStream) {
    // Degenerate input: one link.  Every aggregation gives exactly one
    // 1-hop trip with occupancy 1; the method still returns a gamma.
    LinkStream stream({{0, 1, 50}}, 2, 100);
    const auto result = find_saturation_scale(stream, quick_options());
    EXPECT_GE(result.gamma, 1);
    EXPECT_EQ(result.at_gamma.num_trips, 2u);  // both directions
    EXPECT_DOUBLE_EQ(result.at_gamma.occupancy_mean, 1.0);
}

}  // namespace
}  // namespace natscale

// Degenerate and boundary inputs across the whole pipeline: the failure-
// injection suite.  Every public entry point must either work or throw a
// contract error — never crash or return garbage silently.
#include <gtest/gtest.h>

#include "core/classical_properties.hpp"
#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "core/validation.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/reachability.hpp"
#include "temporal/transitions.hpp"
#include "util/contracts.hpp"

namespace natscale {
namespace {

TEST(EdgeCases, TwoNodeStream) {
    LinkStream stream({{0, 1, 3}, {0, 1, 7}}, 2, 10);
    SweepConfig options;
    options.coarse_points = 8;
    options.histogram_bins = 50;
    const auto result = find_saturation_scale(stream, options);
    EXPECT_GE(result.gamma, 1);
    EXPECT_LE(result.gamma, 10);
    // Only single-hop trips exist on a two-node stream: occupancy is 1.
    EXPECT_DOUBLE_EQ(result.at_gamma.occupancy_mean, 1.0);
}

TEST(EdgeCases, AllEventsSimultaneous) {
    // Every link at t = 5: no temporal path has more than one hop.
    LinkStream stream({{0, 1, 5}, {1, 2, 5}, {2, 3, 5}, {0, 3, 5}}, 4, 10);
    TemporalReachability engine;
    engine.scan_series(aggregate(stream, 1),
                       [&](const MinimalTrip& t) { EXPECT_EQ(t.hops, 1); });
    const ShortestTransitionSet transitions(stream);
    EXPECT_TRUE(transitions.empty());
    const auto hist = occupancy_histogram(stream, 1, 50);
    EXPECT_DOUBLE_EQ(hist.mean(), 1.0);
}

TEST(EdgeCases, EventsAtPeriodBoundaries) {
    // t = 0 and t = T-1 land in the first and last windows.
    LinkStream stream({{0, 1, 0}, {1, 2, 99}}, 3, 100);
    const auto series = aggregate(stream, 10);
    EXPECT_EQ(series.snapshots().front().k, 1);
    EXPECT_EQ(series.snapshots().back().k, 10);
    std::size_t transitions = 0;
    TemporalReachability engine;
    engine.scan_series(series, [&](const MinimalTrip& t) {
        if (t.hops == 2) ++transitions;
    });
    EXPECT_EQ(transitions, 1u);  // 0 -> 2 across the whole period
}

TEST(EdgeCases, LargeTimestamps) {
    // A year at millisecond resolution: timestamps ~3e10, well past int32.
    const Time year_ms = 31'536'000'000;
    LinkStream stream({{0, 1, 1'000}, {1, 2, year_ms - 1'000}}, 3, year_ms);
    const auto series = aggregate(stream, 86'400'000);  // 1-day windows
    EXPECT_EQ(series.num_windows(), 365);
    TemporalReachability engine;
    engine.scan_series(series, [](const MinimalTrip&) {});
    // From node 0: node 1 in window 1, node 2 in window 365 over two hops.
    EXPECT_EQ(engine.state_rows()[0], (ReachRow{{1, 1, 1}, {2, 2, 365}}));
}

TEST(EdgeCases, RepeatedPairSameTimestamp) {
    LinkStream stream({{0, 1, 5}, {0, 1, 5}, {0, 1, 5}}, 2, 10);
    std::size_t trips = 0;
    TemporalReachability engine;
    engine.scan_series(aggregate(stream, 1), [&](const MinimalTrip&) { ++trips; });
    EXPECT_EQ(trips, 2u);  // one per direction, duplicates collapse
}

TEST(EdgeCases, DeltaLargerThanPeriod) {
    LinkStream stream({{0, 1, 5}}, 2, 10);
    const auto hist = occupancy_histogram(stream, 1'000, 50);
    EXPECT_EQ(hist.total(), 2u);
    EXPECT_DOUBLE_EQ(hist.mean(), 1.0);
}

TEST(EdgeCases, ScanIsIdempotent) {
    // Scanning the same series twice through one engine gives identical
    // output (state fully reset between scans).
    LinkStream stream({{0, 1, 0}, {1, 2, 7}, {2, 0, 15}, {0, 2, 22}}, 3, 30);
    const auto series = aggregate(stream, 5);
    std::vector<MinimalTrip> first, second;
    TemporalReachability engine;
    engine.scan_series(series, [&](const MinimalTrip& t) { first.push_back(t); });
    engine.scan_series(series, [&](const MinimalTrip& t) { second.push_back(t); });
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);
}

TEST(EdgeCases, ClassicalPropertiesOnSingleEvent) {
    LinkStream stream({{0, 1, 5}}, 4, 10);
    const auto point = classical_properties(stream, 2, true);
    EXPECT_DOUBLE_EQ(point.mean_non_isolated, 2.0);
    EXPECT_DOUBLE_EQ(point.mean_largest_cc, 2.0);
    EXPECT_DOUBLE_EQ(point.mean_dhops, 1.0);
    // The event sits in window 3 of 5; d_time(0,1,k) = 3-k+1 is finite for
    // k = 1..3, so the mean over finite (u,v,t) triples is (3+2+1)/3 = 2.
    EXPECT_DOUBLE_EQ(point.mean_dtime_windows, 2.0);
}

TEST(EdgeCases, ValidationOnStreamsWithoutTransitions) {
    // A star where all links are simultaneous: no transitions, elongation
    // has nothing to measure — both must degrade gracefully.
    LinkStream stream({{0, 1, 5}, {0, 2, 5}, {0, 3, 5}}, 4, 10);
    const auto lost = lost_transitions_curve(stream, {1, 5, 10});
    for (const auto& point : lost) EXPECT_DOUBLE_EQ(point.lost_fraction, 0.0);
    const auto elongation = elongation_curve(stream, {1, 5, 10});
    for (const auto& point : elongation) {
        EXPECT_EQ(point.measured_trips, 0u);
        EXPECT_DOUBLE_EQ(point.mean_elongation, 0.0);
    }
}

TEST(EdgeCases, SaturationOnMinimalResolutionRange) {
    // T = 2: only Delta in {1, 2} exist.
    LinkStream stream({{0, 1, 0}, {1, 2, 1}}, 3, 2);
    SweepConfig options;
    options.coarse_points = 8;
    options.histogram_bins = 10;
    const auto result = find_saturation_scale(stream, options);
    EXPECT_TRUE(result.gamma == 1 || result.gamma == 2);
    EXPECT_LE(result.curve.size(), 2u);
}

TEST(EdgeCases, DirectedStarHasNoTransitiveTrips) {
    // All arcs point away from the hub: nothing propagates beyond one hop.
    LinkStream stream({{0, 1, 1}, {0, 2, 5}, {0, 3, 9}}, 4, 10, /*directed=*/true);
    TemporalReachability engine;
    engine.scan_series(aggregate(stream, 1),
                       [&](const MinimalTrip& t) { EXPECT_EQ(t.hops, 1); });
    const std::vector<ReachRow> rows = engine.state_rows();
    for (NodeId v = 1; v < 4; ++v) EXPECT_TRUE(rows[v].empty()) << v;
}

TEST(EdgeCases, IsolatedNodesCarryThroughEverything) {
    // Nodes 5..9 never interact; n stays 10 across the pipeline and the
    // isolated nodes never appear in any trip.
    LinkStream stream({{0, 1, 2}, {1, 2, 6}}, 10, 10);
    const auto series = aggregate(stream, 3);
    EXPECT_EQ(series.num_nodes(), 10u);
    TemporalReachability engine;
    engine.scan_series(series, [&](const MinimalTrip& t) {
        EXPECT_LT(t.u, 3u);
        EXPECT_LT(t.v, 3u);
    });
}

}  // namespace
}  // namespace natscale

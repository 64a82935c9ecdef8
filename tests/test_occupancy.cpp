// Tests for occupancy-rate distributions of aggregated series (Section 4).
#include <gtest/gtest.h>

#include "core/occupancy.hpp"
#include "linkstream/aggregation.hpp"
#include "stats/empirical_distribution.hpp"
#include "stats/uniformity.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

LinkStream random_stream(std::uint64_t seed, NodeId n, int events, Time period) {
    Rng rng(seed);
    std::vector<Event> list;
    for (int i = 0; i < events; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        list.push_back({u, v, rng.uniform_int(0, period - 1)});
    }
    return LinkStream(std::move(list), n, period, false);
}

TEST(Occupancy, HistogramMatchesExactDistribution) {
    const auto stream = random_stream(1, 12, 80, 120);
    for (Time delta : {1, 5, 17, 120}) {
        const auto series = aggregate(stream, delta);
        const auto hist = occupancy_histogram(series, 3600);
        // The exact sample set of the same trips, from a direct scan.
        EmpiricalDistribution exact;
        ReachabilityEngine engine;
        engine.scan_series(series,
                           [&](const MinimalTrip& trip) { exact.add(series_occupancy(trip)); });
        ASSERT_EQ(hist.total(), exact.size()) << "delta=" << delta;
        EXPECT_NEAR(hist.mean(), exact.mean(), 1e-12);
        EXPECT_NEAR(compute_all_metrics(hist).mk_proximity, mk_proximity(exact),
                    2.0 / 3600.0 + 1e-9);
    }
}

TEST(Occupancy, CountMatchesHistogramTotal) {
    const auto stream = random_stream(2, 10, 60, 100);
    const auto series = aggregate(stream, 7);
    EXPECT_EQ(count_minimal_trips(series), occupancy_histogram(series).total());
}

TEST(Occupancy, FullAggregationConcentratesAtOne) {
    // Delta = T: every minimal trip is a single link, occupancy exactly 1.
    const auto stream = random_stream(3, 8, 40, 50);
    const auto hist = occupancy_histogram(stream, 50, 100);
    ASSERT_GT(hist.total(), 0u);
    EXPECT_DOUBLE_EQ(hist.mean(), 1.0);
    EXPECT_EQ(hist.counts().back(), hist.total());
    EXPECT_NEAR(compute_all_metrics(hist).mk_proximity, 0.0, 1e-9);
}

TEST(Occupancy, FineAggregationOfSparseStreamConcentratesNearZero) {
    // A very sparse stream at fine resolution: multi-hop trips must wait many
    // windows between hops, so occupancy rates are small.
    LinkStream stream({{0, 1, 0}, {1, 2, 500}, {2, 3, 998}}, 4, 1000);
    const auto hist = occupancy_histogram(stream, 1, 100);
    // The 3-hop trip 0->3 has occupancy 3/999; the 2-hop trips are ~2/500.
    // Single-link trips score 1, so the mean sits between but the low bins
    // must be populated.
    std::uint64_t low_mass = 0;
    for (std::size_t b = 0; b < 10; ++b) low_mass += hist.counts()[b];
    EXPECT_GT(low_mass, 0u);
}

TEST(Occupancy, StretchesThenContracts) {
    // The core phenomenon of the paper: M-K proximity rises then falls as
    // Delta grows from the resolution to T.
    const auto stream = random_stream(4, 15, 300, 100'000);
    const auto near_zero = occupancy_histogram(stream, 1);
    const auto total = occupancy_histogram(stream, 100'000);
    double best = -1.0;
    for (Time delta : {100, 300, 1000, 3000, 10'000}) {
        const Histogram01 hist = occupancy_histogram(stream, delta);
        best = std::max(best, compute_all_metrics(hist).mk_proximity);
    }
    EXPECT_GT(best, compute_all_metrics(near_zero).mk_proximity);
    EXPECT_GT(best, compute_all_metrics(total).mk_proximity);
}

TEST(Occupancy, EmptyStreamGivesEmptyHistogram) {
    LinkStream stream({}, 4, 100);
    const auto hist = occupancy_histogram(stream, 10);
    EXPECT_TRUE(hist.empty());
}

}  // namespace
}  // namespace natscale

// Validation of the O(1)-per-stretch distance accumulator against direct
// enumeration of d_time(u, v, t) over all pairs and start windows.
#include <gtest/gtest.h>

#include "linkstream/aggregation.hpp"
#include "testing/brute_force.hpp"
#include "temporal/distance_stats.hpp"
#include "temporal/reachability.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

LinkStream random_stream(std::uint64_t seed, NodeId n, int events, Time period, bool directed) {
    Rng rng(seed);
    std::vector<Event> list;
    for (int i = 0; i < events; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        list.push_back({u, v, rng.uniform_int(0, period - 1)});
    }
    return LinkStream(std::move(list), n, period, directed);
}

DistanceStats accumulated(const GraphSeries& series) {
    DistanceAccumulator accumulator;
    ReachabilityOptions options;
    options.distances = &accumulator;
    TemporalReachability engine;
    engine.scan_series(series, [](const MinimalTrip&) {}, options);
    return accumulator.stats();
}

DistanceStats enumerated(const GraphSeries& series) {
    const auto table = forward_arrival_table(series);
    DistanceStats stats;
    for (WindowIndex k = 1; k <= table.K; ++k) {
        for (NodeId u = 0; u < table.n; ++u) {
            for (NodeId v = 0; v < table.n; ++v) {
                if (u == v) continue;
                const Time a = table.arrival(k, u, v);
                if (a == kInfiniteTime) continue;
                stats.dtime_sum += static_cast<double>(a - k + 1);
                stats.dhops_sum += static_cast<double>(table.hop_count(k, u, v));
                stats.finite_count += 1.0;
            }
        }
    }
    return stats;
}

TEST(DistanceStats, HandComputedChain) {
    // 0-1 @ window 1, 1-2 @ window 3; K = 3 (delta 10, T 30).
    LinkStream stream({{0, 1, 0}, {1, 2, 20}}, 3, 30);
    const auto stats = accumulated(aggregate(stream, 10));
    // Finite d_time values:
    //  (0,1,1) = 1; (1,0,1) = 1;
    //  (0,2,1) = 3 (arrive window 3);
    //  (1,2,k) for k=1,2,3 -> arrivals 3,3,3 -> d = 3,2,1;
    //  (2,1,k) same by symmetry -> 3,2,1... careful: 2 reaches 1 via the
    //  window-3 link only: d(2,1,1)=3, d(2,1,2)=2, d(2,1,3)=1.
    //  (1,0,1) only (the 0-1 link is in window 1): d=1. (0,1,1)=1.
    //  (2,0,*): no path (0-1 link precedes 1-2). (0,2) from k=2,3: no.
    // Sum = 1+1+3 + (3+2+1) + (3+2+1) = 17; count = 9.
    EXPECT_DOUBLE_EQ(stats.finite_count, 9.0);
    EXPECT_DOUBLE_EQ(stats.dtime_sum, 17.0);
    EXPECT_DOUBLE_EQ(stats.mean_dtime_windows(), 17.0 / 9.0);
    // d_hops: (0,2,1) is 2 hops; all others 1 hop -> 8*1 + 2 = 10.
    EXPECT_DOUBLE_EQ(stats.dhops_sum, 10.0);
    EXPECT_DOUBLE_EQ(stats.mean_dabstime_ticks(10), 10.0 * 17.0 / 9.0);
}

TEST(DistanceStats, EmptySeriesHasNoFinitePairs) {
    LinkStream stream({}, 4, 20);
    const auto stats = accumulated(aggregate(stream, 5));
    EXPECT_DOUBLE_EQ(stats.finite_count, 0.0);
    EXPECT_DOUBLE_EQ(stats.mean_dtime_windows(), 0.0);
    EXPECT_DOUBLE_EQ(stats.mean_dhops(), 0.0);
}

TEST(DistanceStats, SingleWindowSeries) {
    // Delta = T: d_time(u,v,1) = 1 for every linked pair.
    LinkStream stream({{0, 1, 3}, {2, 3, 7}}, 4, 10);
    const auto stats = accumulated(aggregate(stream, 10));
    EXPECT_DOUBLE_EQ(stats.finite_count, 4.0);  // both directions of 2 links
    EXPECT_DOUBLE_EQ(stats.dtime_sum, 4.0);
    EXPECT_DOUBLE_EQ(stats.mean_dhops(), 1.0);
}

class DistanceStatsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceStatsProperty, MatchesEnumerationOnRandomSeries) {
    const std::uint64_t seed = GetParam();
    Rng meta(seed * 257 + 1);
    const NodeId n = static_cast<NodeId>(3 + meta.uniform_index(8));
    const int events = static_cast<int>(4 + meta.uniform_index(50));
    const Time period = static_cast<Time>(10 + meta.uniform_index(60));
    const bool directed = meta.bernoulli(0.5);
    const Time delta = static_cast<Time>(1 + meta.uniform_index(7));

    const auto stream = random_stream(seed, n, events, period, directed);
    const auto series = aggregate(stream, delta);

    const auto fast = accumulated(series);
    const auto slow = enumerated(series);

    EXPECT_DOUBLE_EQ(fast.finite_count, slow.finite_count) << "seed=" << seed;
    EXPECT_NEAR(fast.dtime_sum, slow.dtime_sum, 1e-6 * (1.0 + slow.dtime_sum))
        << "seed=" << seed;
    EXPECT_NEAR(fast.dhops_sum, slow.dhops_sum, 1e-6 * (1.0 + slow.dhops_sum))
        << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DistanceStatsProperty,
                         ::testing::Range<std::uint64_t>(0, 40));

}  // namespace
}  // namespace natscale

// End-to-end property tests of occupancy distributions: the values that
// reach the histogram (not just the trips) are validated against the
// exhaustive-path oracle, and cross-Delta invariants of the distribution
// family are checked on random streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/occupancy.hpp"
#include "linkstream/aggregation.hpp"
#include "stats/uniformity.hpp"
#include "testing/brute_force.hpp"
#include "temporal/reachability.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

LinkStream random_stream(std::uint64_t seed, NodeId n, int events, Time period,
                         bool directed) {
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

class OccupancyVsOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OccupancyVsOracle, DistributionMatchesExhaustiveEnumeration) {
    const std::uint64_t seed = GetParam();
    Rng meta(seed * 887 + 3);
    const auto stream = random_stream(seed + 40'000,
                                      static_cast<NodeId>(3 + meta.uniform_index(4)),
                                      static_cast<int>(4 + meta.uniform_index(10)),
                                      static_cast<Time>(6 + meta.uniform_index(8)),
                                      meta.bernoulli(0.5));
    const Time delta = static_cast<Time>(1 + meta.uniform_index(3));
    const auto series = aggregate(stream, delta);

    // Occupancy multiset from the engine.
    std::multiset<double> engine_occ;
    TemporalReachability engine;
    engine.scan_series(series, [&](const MinimalTrip& t) {
        engine_occ.insert(series_occupancy(t));
    });

    // Occupancy multiset from literal path enumeration.
    std::multiset<double> oracle_occ;
    for (const auto& trip : exhaustive_minimal_trips(series)) {
        oracle_occ.insert(series_occupancy(trip));
    }

    ASSERT_EQ(engine_occ.size(), oracle_occ.size()) << "seed=" << seed;
    auto it1 = engine_occ.begin();
    auto it2 = oracle_occ.begin();
    for (; it1 != engine_occ.end(); ++it1, ++it2) {
        EXPECT_DOUBLE_EQ(*it1, *it2) << "seed=" << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, OccupancyVsOracle, ::testing::Range<std::uint64_t>(0, 40));

class OccupancyFamily : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OccupancyFamily, EndpointAndBoundInvariants) {
    const std::uint64_t seed = GetParam();
    const auto stream = random_stream(seed + 60'000, 15, 250, 5'000, (seed % 2) == 0);

    // At Delta = T: all trips single-hop, occ = 1, count = arcs of the
    // total graph (undirected: twice the distinct edges).
    const auto total = occupancy_histogram(stream, stream.period_end(), 100);
    EXPECT_DOUBLE_EQ(total.mean(), 1.0);
    const auto total_series = aggregate(stream, stream.period_end());
    const std::size_t arcs = stream.directed() ? total_series.total_edges()
                                               : 2 * total_series.total_edges();
    EXPECT_EQ(total.total(), arcs) << "seed=" << seed;

    // The trip count can only shrink as Delta grows past T/2: a single
    // window holds everything.  More usefully: every histogram is non-empty
    // and its mean lies in (0, 1].
    for (Time delta : {1, 7, 61, 500, 2'500}) {
        const auto hist = occupancy_histogram(stream, delta, 100);
        ASSERT_GT(hist.total(), 0u) << "seed=" << seed;
        EXPECT_GT(hist.mean(), 0.0);
        EXPECT_LE(hist.mean(), 1.0);
        EXPECT_GE(compute_all_metrics(hist).mk_proximity, -1e-12);
    }

    // Mean occupancy at Delta = resolution is no larger than at Delta = T
    // (the distribution migrates towards 1 overall).
    const auto fine = occupancy_histogram(stream, 1, 100);
    EXPECT_LE(fine.mean(), total.mean());
}

TEST_P(OccupancyFamily, SingleHopTripsAlwaysScoreOne) {
    const std::uint64_t seed = GetParam();
    const auto stream = random_stream(seed + 70'000, 12, 150, 2'000, false);
    for (Time delta : {3, 50, 700}) {
        TemporalReachability engine;
        engine.scan_series(aggregate(stream, delta), [&](const MinimalTrip& t) {
            if (t.hops == 1) {
                EXPECT_EQ(t.dep, t.arr);
                EXPECT_DOUBLE_EQ(series_occupancy(t), 1.0);
            } else {
                EXPECT_GT(t.arr, t.dep);
            }
        });
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, OccupancyFamily, ::testing::Range<std::uint64_t>(0, 12));

TEST(OccupancyConventions, DurationUsesWindowCountNotTickSpan) {
    // Two-hop trip across adjacent windows: duration 2 windows regardless of
    // where in the windows the events sit (the "+1" of Definition 4).
    LinkStream early({{0, 1, 0}, {1, 2, 10}}, 3, 20);   // events at window starts
    LinkStream late({{0, 1, 9}, {1, 2, 19}}, 3, 20);    // events at window ends
    for (const auto* stream : {&early, &late}) {
        bool found = false;
        TemporalReachability engine;
        engine.scan_series(aggregate(*stream, 10), [&](const MinimalTrip& t) {
            if (t.u == 0 && t.v == 2) {
                EXPECT_EQ(series_duration(t), 2);
                EXPECT_DOUBLE_EQ(series_occupancy(t), 1.0);  // 2 hops / 2 windows
                found = true;
            }
        });
        EXPECT_TRUE(found);
    }
}

TEST(OccupancyConventions, WaitingLowersOccupancy) {
    // Same two hops with three empty windows between them: occ = 2/5.
    LinkStream stream({{0, 1, 0}, {1, 2, 40}}, 3, 50);
    bool found = false;
    TemporalReachability engine;
    engine.scan_series(aggregate(stream, 10), [&](const MinimalTrip& t) {
        if (t.u == 0 && t.v == 2) {
            EXPECT_DOUBLE_EQ(series_occupancy(t), 2.0 / 5.0);
            found = true;
        }
    });
    EXPECT_TRUE(found);
}

}  // namespace
}  // namespace natscale

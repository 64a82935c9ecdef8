// Tests for the per-pair stream-trip store used by the elongation measure.
#include <gtest/gtest.h>

#include "linkstream/aggregation.hpp"
#include "temporal/reachability.hpp"
#include "temporal/trip_store.hpp"
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

TEST(TripStore, StoresAllTripsOfSimpleChain) {
    LinkStream stream({{0, 1, 10}, {1, 2, 25}}, 3, 50);
    const StreamTripStore store(stream);
    // Trips of (0,2): exactly the transition departing 10 arriving 25.
    const auto [deps, arrs] = store.trips_of(0, 2);
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_EQ(deps[0], 10);
    EXPECT_EQ(arrs[0], 25);
    // Unreached pair -> empty.
    EXPECT_TRUE(store.trips_of(2, 0).first.empty());
}

TEST(TripStore, SizeMatchesCountTrips) {
    const auto stream = random_stream(5, 15, 200, 500);
    const StreamTripStore store(stream);
    EXPECT_EQ(store.size(), StreamTripStore::count_trips(stream));
    EXPECT_GT(store.size(), 0u);
}

TEST(TripStore, PerPairStaircaseSortedByDeparture) {
    const auto stream = random_stream(6, 10, 150, 400);
    const StreamTripStore store(stream);
    for (NodeId u = 0; u < 10; ++u) {
        for (NodeId v = 0; v < 10; ++v) {
            if (u == v) continue;
            const auto [deps, arrs] = store.trips_of(u, v);
            for (std::size_t i = 1; i < deps.size(); ++i) {
                EXPECT_LT(deps[i - 1], deps[i]);
                EXPECT_LT(arrs[i - 1], arrs[i]);  // minimal-trip staircase
            }
        }
    }
}

TEST(TripStore, MinDurationWithinWindow) {
    // Pair (0,1) trips: [5,5] (direct), [20,30] via 2, say.
    LinkStream stream({{0, 1, 5}, {0, 2, 20}, {2, 1, 30}}, 3, 60);
    const StreamTripStore store(stream);
    // Whole period: the direct link has duration 0.
    EXPECT_EQ(store.min_duration_within(0, 1, 0, 59).value(), 0);
    // Window excluding the direct link: only the 2-hop trip (duration 10).
    EXPECT_EQ(store.min_duration_within(0, 1, 10, 59).value(), 10);
    // Window too small for anything.
    EXPECT_FALSE(store.min_duration_within(0, 1, 6, 19).has_value());
    // Window cutting the 2-hop trip's arrival out.
    EXPECT_FALSE(store.min_duration_within(0, 1, 10, 29).has_value());
    // Unknown pair.
    EXPECT_FALSE(store.min_duration_within(1, 0, 0, 59).has_value() &&
                 false);  // may or may not exist; just must not crash
}

TEST(TripStore, MinDurationBruteForceAgreement) {
    const auto stream = random_stream(9, 8, 120, 300);
    const StreamTripStore store(stream);

    // Reference: collect all trips of the Delta = 1 series per pair, at
    // t = k - 1, and scan query windows naively.
    std::vector<MinimalTrip> trips;
    TemporalReachability engine;
    engine.scan_series(aggregate(stream, 1), [&](const MinimalTrip& t) {
        trips.push_back({t.u, t.v, t.dep - 1, t.arr - 1, t.hops});
    });

    Rng rng(1234);
    for (int q = 0; q < 500; ++q) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(8));
        NodeId v = static_cast<NodeId>(rng.uniform_index(8));
        if (u == v) v = (v + 1) % 8;
        const Time a = rng.uniform_int(0, 299);
        const Time b = rng.uniform_int(a, 299);

        std::optional<Time> expected;
        for (const auto& t : trips) {
            if (t.u != u || t.v != v) continue;
            if (t.dep < a || t.arr > b) continue;
            const Time duration = t.arr - t.dep;
            if (!expected || duration < *expected) expected = duration;
        }
        const auto actual = store.min_duration_within(u, v, a, b);
        EXPECT_EQ(actual, expected) << "query " << q;
    }
}

TEST(TripStore, PairSamplingKeepsSubset) {
    const auto stream = random_stream(11, 12, 200, 400);
    const StreamTripStore full(stream);
    StreamTripStore::Options options;
    options.pair_sample_divisor = 4;
    const StreamTripStore sampled(stream, options);
    EXPECT_LT(sampled.size(), full.size());
    EXPECT_GT(sampled.size(), 0u);
    EXPECT_EQ(sampled.pair_sample_divisor(), 4u);
    // Sampled pairs carry identical trip lists.
    for (NodeId u = 0; u < 12; ++u) {
        for (NodeId v = 0; v < 12; ++v) {
            if (u == v) continue;
            const auto [sdeps, sarrs] = sampled.trips_of(u, v);
            if (sdeps.empty()) continue;
            const auto [fdeps, farrs] = full.trips_of(u, v);
            ASSERT_EQ(sdeps.size(), fdeps.size());
            for (std::size_t i = 0; i < sdeps.size(); ++i) {
                EXPECT_EQ(sdeps[i], fdeps[i]);
                EXPECT_EQ(sarrs[i], farrs[i]);
            }
        }
    }
}

TEST(TripStore, CountTripsHonoursSampling) {
    const auto stream = random_stream(13, 12, 200, 400);
    EXPECT_LT(StreamTripStore::count_trips(stream, 4), StreamTripStore::count_trips(stream));
}

TEST(TripStore, EmptyStream) {
    LinkStream stream({}, 4, 100);
    const StreamTripStore store(stream);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.min_duration_within(0, 1, 0, 99).has_value());
}

}  // namespace
}  // namespace natscale

// Unit tests of the backward minimal-trip DP on hand-computed instances.
#include <gtest/gtest.h>

#include <algorithm>

#include "linkstream/aggregation.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability.hpp"

namespace natscale {
namespace {

std::vector<MinimalTrip> collect_series_trips(const GraphSeries& series) {
    std::vector<MinimalTrip> trips;
    TemporalReachability engine;
    engine.scan_series(series, [&](const MinimalTrip& t) { trips.push_back(t); });
    std::sort(trips.begin(), trips.end(), [](const MinimalTrip& x, const MinimalTrip& y) {
        return std::tie(x.u, x.v, x.dep, x.arr) < std::tie(y.u, y.v, y.dep, y.arr);
    });
    return trips;
}

/// The stream's minimal trips: those of its Delta = 1 series, whose window k
/// holds exactly the events at t = k - 1, back in timestamps.
std::vector<MinimalTrip> collect_stream_trips(const LinkStream& stream) {
    auto trips = collect_series_trips(aggregate(stream, 1));
    for (auto& t : trips) {
        t.dep -= 1;
        t.arr -= 1;
    }
    return trips;
}

bool contains_trip(const std::vector<MinimalTrip>& trips, MinimalTrip probe) {
    return std::find(trips.begin(), trips.end(), probe) != trips.end();
}

TEST(Reachability, TwoHopChain) {
    // 0-1 in window 1, 1-2 in window 2 (undirected).
    LinkStream stream({{0, 1, 0}, {1, 2, 10}}, 3, 20);
    const auto series = aggregate(stream, 10);
    const auto trips = collect_series_trips(series);

    EXPECT_TRUE(contains_trip(trips, {0, 1, 1, 1, 1}));
    EXPECT_TRUE(contains_trip(trips, {1, 0, 1, 1, 1}));
    EXPECT_TRUE(contains_trip(trips, {1, 2, 2, 2, 1}));
    EXPECT_TRUE(contains_trip(trips, {2, 1, 2, 2, 1}));
    EXPECT_TRUE(contains_trip(trips, {0, 2, 1, 2, 2}));  // the transition
    // 2 cannot reach 0: the 0-1 link is before the 1-2 link.
    for (const auto& t : trips) {
        EXPECT_FALSE(t.u == 2 && t.v == 0);
    }
    EXPECT_EQ(trips.size(), 5u);
}

TEST(Reachability, TripStartingLaterIsNotMinimalWhenArrivalUnchanged) {
    // 1-2 exists only in window 2; a trip (1,2) "starting at window 1" has
    // the same arrival as one starting at window 2, so only the later is
    // minimal (Definition 5).
    LinkStream stream({{0, 1, 0}, {1, 2, 10}}, 3, 20);
    const auto trips = collect_series_trips(aggregate(stream, 10));
    EXPECT_FALSE(contains_trip(trips, {1, 2, 1, 2, 1}));
    EXPECT_TRUE(contains_trip(trips, {1, 2, 2, 2, 1}));
}

TEST(Reachability, MinHopsAmongEarliestArrivalPaths) {
    // Two paths from 0 to 3 departing window 1 and arriving window 3:
    //   0-1@1, 1-2@2, 2-3@3  (3 hops)
    //   0-4@1, 4-3@3         (2 hops)
    LinkStream stream({{0, 1, 0}, {0, 4, 0}, {1, 2, 10}, {2, 3, 20}, {4, 3, 20}}, 5, 30);
    const auto trips = collect_series_trips(aggregate(stream, 10));
    EXPECT_TRUE(contains_trip(trips, {0, 3, 1, 3, 2}));
    EXPECT_FALSE(contains_trip(trips, {0, 3, 1, 3, 3}));
}

TEST(Reachability, DirectEdgeBeatsLongerPathAtSameArrival) {
    // 0-1@1, 1-3@2 and direct 0-3@2: earliest arrival 2 with 1 hop.
    LinkStream stream({{0, 1, 0}, {1, 3, 10}, {0, 3, 10}}, 4, 20);
    const auto trips = collect_series_trips(aggregate(stream, 10));
    // Minimal trip for (0,3) starts at window 2 (the direct link), not 1.
    EXPECT_TRUE(contains_trip(trips, {0, 3, 2, 2, 1}));
    for (const auto& t : trips) {
        EXPECT_FALSE(t.u == 0 && t.v == 3 && t.dep == 1) << "non-minimal trip reported";
    }
}

TEST(Reachability, DirectedSeriesRespectsOrientation) {
    LinkStream stream({{0, 1, 0}, {1, 2, 10}}, 3, 20, /*directed=*/true);
    const auto trips = collect_series_trips(aggregate(stream, 10));
    EXPECT_TRUE(contains_trip(trips, {0, 1, 1, 1, 1}));
    EXPECT_TRUE(contains_trip(trips, {0, 2, 1, 2, 2}));
    for (const auto& t : trips) {
        EXPECT_FALSE(t.u == 1 && t.v == 0);
        EXPECT_FALSE(t.u == 2 && t.v == 1);
    }
    EXPECT_EQ(trips.size(), 3u);
}

// ---- The Figure 1 universe -------------------------------------------------
// Nodes a..e; three aggregation windows of length 10.  The dark-blue path
// e -> c -> b spans windows 1 and 2 and survives aggregation; the light-pink
// path d -> c -> b lies inside window 3 and is destroyed by it (it would
// need two links of G3, which Remark 1 forbids).
constexpr NodeId a = 0, b = 1, c = 2, d = 3, e = 4;

LinkStream figure1_stream() {
    return LinkStream({{e, c, 3}, {c, b, 14}, {a, d, 8}, {d, c, 21}, {c, b, 25}},
                      5, 30, /*directed=*/false);
}

TEST(Figure1, DarkBluePathExistsInStream) {
    const auto trips = collect_stream_trips(figure1_stream());
    const MinimalTrip dark_blue{e, b, 3, 14, 2};
    EXPECT_TRUE(contains_trip(trips, dark_blue));
    EXPECT_EQ(dark_blue.arr - dark_blue.dep, 11);  // ticks between the two links
}

TEST(Figure1, DarkBluePathExistsInSeries) {
    const auto trips = collect_series_trips(aggregate(figure1_stream(), 10));
    const MinimalTrip dark_blue{e, b, 1, 2, 2};
    EXPECT_TRUE(contains_trip(trips, dark_blue));
    EXPECT_EQ(series_duration(dark_blue), 2);  // two windows
}

TEST(Figure1, LightPinkPathExistsInStream) {
    EXPECT_TRUE(contains_trip(collect_stream_trips(figure1_stream()), {d, b, 21, 25, 2}));
}

TEST(Figure1, LightPinkPathDestroyedBySeries) {
    // Both links are in G3; Remark 1 forbids using two links of the same
    // snapshot, so d reaches b by no trip of the series.
    for (const auto& t : collect_series_trips(aggregate(figure1_stream(), 10))) {
        EXPECT_FALSE(t.u == d && t.v == b) << "pink path should be destroyed";
    }
}

TEST(Reachability, Figure1SeriesLosesPinkPath) {
    // The Figure 1 series at Delta = 10 (its trips are checked by the
    // Figure1 tests above): the final state has no d -> b arrival, and e
    // reaches b in window 2 with two hops.
    TemporalReachability engine;
    engine.scan_series(aggregate(figure1_stream(), 10), [](const MinimalTrip&) {});
    const std::vector<ReachRow> rows = engine.state_rows();
    EXPECT_TRUE(std::none_of(rows[d].begin(), rows[d].end(),
                             [](const ReachEntry& entry) { return entry.v == b; }));
    EXPECT_NE(std::find(rows[e].begin(), rows[e].end(), ReachEntry{b, 2, 2}), rows[e].end());
}

TEST(Reachability, StreamModeUsesTimestamps) {
    LinkStream stream({{0, 1, 100}, {1, 2, 250}}, 3, 1000);
    const auto trips = collect_stream_trips(stream);
    EXPECT_TRUE(contains_trip(trips, {0, 1, 100, 100, 1}));
    EXPECT_TRUE(contains_trip(trips, {0, 2, 100, 250, 2}));
    EXPECT_TRUE(contains_trip(trips, {1, 2, 250, 250, 1}));
}

TEST(Reachability, SimultaneousLinksCannotChain) {
    // Both links at t = 5: no 2-hop path (Remark 1).
    LinkStream stream({{0, 1, 5}, {1, 2, 5}}, 3, 10);
    const auto trips = collect_stream_trips(stream);
    for (const auto& t : trips) {
        EXPECT_FALSE(t.u == 0 && t.v == 2);
        EXPECT_FALSE(t.u == 2 && t.v == 0);
    }
}

TEST(Reachability, DuplicateEventsHarmless) {
    LinkStream stream({{0, 1, 0}, {0, 1, 0}, {1, 2, 10}, {1, 2, 12}}, 3, 20);
    const auto trips = collect_stream_trips(stream);
    EXPECT_TRUE(contains_trip(trips, {0, 2, 0, 10, 2}));
}

TEST(Reachability, MultipleTripsPerPairFormStaircase) {
    // 0-1 at windows 1 and 3; both give minimal single-hop trips.
    LinkStream stream({{0, 1, 0}, {0, 1, 20}}, 2, 30);
    const auto trips = collect_series_trips(aggregate(stream, 10));
    EXPECT_TRUE(contains_trip(trips, {0, 1, 1, 1, 1}));
    EXPECT_TRUE(contains_trip(trips, {0, 1, 3, 3, 1}));
    // Departures and arrivals strictly increase per pair.
    Time prev_dep = -1, prev_arr = -1;
    for (const auto& t : trips) {
        if (t.u != 0 || t.v != 1) continue;
        EXPECT_GT(t.dep, prev_dep);
        EXPECT_GT(t.arr, prev_arr);
        prev_dep = t.dep;
        prev_arr = t.arr;
    }
}

TEST(Reachability, OccupancyAlwaysInUnitInterval) {
    LinkStream stream({{0, 1, 0}, {1, 2, 10}, {2, 3, 50}, {0, 3, 55}, {1, 3, 33}}, 4, 60);
    for (Time delta : {1, 5, 10, 60}) {
        TemporalReachability engine;
        engine.scan_series(aggregate(stream, delta), [&](const MinimalTrip& t) {
            const double occ = series_occupancy(t);
            EXPECT_GT(occ, 0.0);
            EXPECT_LE(occ, 1.0);
            EXPECT_LE(static_cast<Time>(t.hops), series_duration(t));  // Remark 2
        });
    }
}

TEST(Reachability, FullAggregationMakesAllTripsSingleHop) {
    // Delta = T: one snapshot; every minimal trip is one link, occupancy 1.
    LinkStream stream({{0, 1, 3}, {1, 2, 7}, {2, 3, 1}, {0, 3, 9}}, 4, 10);
    std::size_t count = 0;
    TemporalReachability engine;
    engine.scan_series(aggregate(stream, 10), [&](const MinimalTrip& t) {
        EXPECT_EQ(t.hops, 1);
        EXPECT_EQ(t.dep, 1);
        EXPECT_EQ(t.arr, 1);
        EXPECT_DOUBLE_EQ(series_occupancy(t), 1.0);
        ++count;
    });
    EXPECT_EQ(count, 8u);  // 4 undirected edges, both directions
}

TEST(Reachability, EngineReusableAcrossScans) {
    TemporalReachability engine;
    LinkStream s1({{0, 1, 0}}, 2, 10);
    LinkStream s2({{0, 1, 0}, {1, 2, 10}}, 3, 20);
    std::size_t count1 = 0, count2 = 0;
    engine.scan_series(aggregate(s1, 10), [&](const MinimalTrip&) { ++count1; });
    engine.scan_series(aggregate(s2, 10), [&](const MinimalTrip&) { ++count2; });
    EXPECT_EQ(count1, 2u);
    EXPECT_EQ(count2, 5u);
    // Second scan's state does not leak from the first.
    EXPECT_EQ(engine.state_rows()[0], (ReachRow{{1, 1, 1}, {2, 2, 2}}));
}

TEST(Reachability, EmptySeriesYieldsNoTrips) {
    LinkStream stream({}, 3, 10);
    std::size_t count = 0;
    TemporalReachability engine;
    engine.scan_series(aggregate(stream, 2), [&](const MinimalTrip&) { ++count; });
    EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace natscale

// Property-based validation of the backward DP against two independent
// oracles: a forward label-correcting search (medium instances) and literal
// path enumeration + Pareto filtering of trip intervals (tiny instances).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "linkstream/aggregation.hpp"
#include "testing/brute_force.hpp"
#include "temporal/reachability.hpp"
#include "temporal/transitions.hpp"
#include "temporal/trip_store.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

struct RandomStreamParams {
    std::uint64_t seed;
    NodeId nodes;
    int events;
    Time period;
    bool directed;
};

LinkStream random_stream(const RandomStreamParams& p) {
    Rng rng(p.seed);
    std::vector<Event> events;
    events.reserve(static_cast<std::size_t>(p.events));
    for (int i = 0; i < p.events; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(p.nodes));
        NodeId v = static_cast<NodeId>(rng.uniform_index(p.nodes));
        if (u == v) v = (v + 1) % p.nodes;
        events.push_back({u, v, rng.uniform_int(0, p.period - 1)});
    }
    return LinkStream(std::move(events), p.nodes, p.period, p.directed);
}

std::vector<MinimalTrip> sorted_trips(std::vector<MinimalTrip> trips) {
    std::sort(trips.begin(), trips.end(), [](const MinimalTrip& a, const MinimalTrip& b) {
        return std::tie(a.u, a.v, a.dep, a.arr, a.hops) <
               std::tie(b.u, b.v, b.dep, b.arr, b.hops);
    });
    return trips;
}

std::vector<MinimalTrip> dp_trips(const GraphSeries& series) {
    std::vector<MinimalTrip> trips;
    TemporalReachability engine;
    engine.scan_series(series, [&](const MinimalTrip& t) { trips.push_back(t); });
    return sorted_trips(std::move(trips));
}

// ---- DP vs forward oracle over random medium instances ---------------------

class DpVsForwardOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpVsForwardOracle, MinimalTripsIdentical) {
    const std::uint64_t seed = GetParam();
    Rng meta(seed * 7919 + 13);
    const RandomStreamParams params{
        seed,
        static_cast<NodeId>(3 + meta.uniform_index(10)),   // 3..12 nodes
        static_cast<int>(5 + meta.uniform_index(60)),      // 5..64 events
        static_cast<Time>(8 + meta.uniform_index(50)),     // period 8..57
        meta.bernoulli(0.5),
    };
    const auto stream = random_stream(params);
    const Time delta = static_cast<Time>(1 + meta.uniform_index(10));
    const auto series = aggregate(stream, delta);

    const auto from_dp = dp_trips(series);
    const auto table = forward_arrival_table(series);
    const auto from_oracle = sorted_trips(minimal_trips_from_table(table));

    ASSERT_EQ(from_dp.size(), from_oracle.size())
        << "seed=" << seed << " delta=" << delta << " directed=" << params.directed;
    for (std::size_t i = 0; i < from_dp.size(); ++i) {
        EXPECT_EQ(from_dp[i], from_oracle[i]) << "seed=" << seed << " index=" << i;
    }
}

TEST_P(DpVsForwardOracle, FinalArrivalTableMatches) {
    const std::uint64_t seed = GetParam();
    Rng meta(seed * 104729 + 7);
    const RandomStreamParams params{
        seed + 1000,
        static_cast<NodeId>(3 + meta.uniform_index(8)),
        static_cast<int>(5 + meta.uniform_index(40)),
        static_cast<Time>(6 + meta.uniform_index(30)),
        meta.bernoulli(0.5),
    };
    const auto stream = random_stream(params);
    const auto series = aggregate(stream, 2);

    TemporalReachability engine;
    engine.scan_series(series, [](const MinimalTrip&) {});
    const auto table = forward_arrival_table(series);
    // The oracle's arrivals from window 1 on, as rows of finite cells.
    std::vector<ReachRow> expected(series.num_nodes());
    for (NodeId u = 0; u < series.num_nodes(); ++u) {
        for (NodeId v = 0; v < series.num_nodes(); ++v) {
            if (u == v || table.arrival(1, u, v) == kInfiniteTime) continue;
            expected[u].push_back({v, table.hop_count(1, u, v), table.arrival(1, u, v)});
        }
    }
    EXPECT_EQ(engine.state_rows(), expected) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DpVsForwardOracle, ::testing::Range<std::uint64_t>(0, 40));

// ---- DP vs exhaustive enumeration over tiny instances ----------------------

class DpVsExhaustive : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DpVsExhaustive, MinimalTripsIdentical) {
    const std::uint64_t seed = GetParam();
    Rng meta(seed * 6151 + 3);
    const RandomStreamParams params{
        seed + 5000,
        static_cast<NodeId>(3 + meta.uniform_index(4)),   // 3..6 nodes
        static_cast<int>(3 + meta.uniform_index(12)),     // 3..14 events
        static_cast<Time>(5 + meta.uniform_index(8)),     // period 5..12
        meta.bernoulli(0.5),
    };
    const auto stream = random_stream(params);
    const Time delta = static_cast<Time>(1 + meta.uniform_index(3));
    const auto series = aggregate(stream, delta);

    const auto from_dp = dp_trips(series);
    const auto from_exhaustive = sorted_trips(exhaustive_minimal_trips(series));

    ASSERT_EQ(from_dp.size(), from_exhaustive.size()) << "seed=" << seed;
    for (std::size_t i = 0; i < from_dp.size(); ++i) {
        EXPECT_EQ(from_dp[i], from_exhaustive[i]) << "seed=" << seed << " index=" << i;
    }
}

TEST_P(DpVsExhaustive, StreamModeMatchesUnitDeltaSeries) {
    // The stream analyses scan the Delta = 1 series, whose window k holds
    // exactly the events at t = k - 1, and keep timestamps: their trips must
    // be the exhaustive oracle's trips of that series at t = k - 1.
    const std::uint64_t seed = GetParam();
    Rng meta(seed * 31 + 17);
    const RandomStreamParams params{
        seed + 9000,
        static_cast<NodeId>(3 + meta.uniform_index(5)),
        static_cast<int>(3 + meta.uniform_index(15)),
        static_cast<Time>(5 + meta.uniform_index(10)),
        meta.bernoulli(0.5),
    };
    const auto stream = random_stream(params);

    auto oracle = sorted_trips(exhaustive_minimal_trips(aggregate(stream, 1)));
    for (auto& t : oracle) {
        t.dep -= 1;
        t.arr -= 1;
    }

    const StreamTripStore store(stream);
    EXPECT_EQ(store.size(), oracle.size()) << "seed=" << seed;
    for (NodeId u = 0; u < stream.num_nodes(); ++u) {
        for (NodeId v = 0; v < stream.num_nodes(); ++v) {
            std::vector<Time> deps;
            std::vector<Time> arrs;
            for (const auto& t : oracle) {
                if (t.u != u || t.v != v) continue;
                deps.push_back(t.dep);
                arrs.push_back(t.arr);
            }
            const auto [store_deps, store_arrs] = store.trips_of(u, v);
            EXPECT_EQ(std::vector<Time>(store_deps.begin(), store_deps.end()), deps)
                << "seed=" << seed << " pair=" << u << "," << v;
            EXPECT_EQ(std::vector<Time>(store_arrs.begin(), store_arrs.end()), arrs)
                << "seed=" << seed << " pair=" << u << "," << v;
        }
    }

    std::vector<std::pair<Time, Time>> two_hop;
    for (const auto& t : oracle) {
        if (t.hops == 2) two_hop.emplace_back(t.dep, t.arr);
    }
    auto hop_times = ShortestTransitionSet(stream).hop_times();
    std::sort(two_hop.begin(), two_hop.end());
    std::sort(hop_times.begin(), hop_times.end());
    EXPECT_EQ(hop_times, two_hop) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DpVsExhaustive, ::testing::Range<std::uint64_t>(0, 60));

// ---- Structural invariants on larger random instances ----------------------

class TripInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TripInvariants, StaircaseAndBounds) {
    const std::uint64_t seed = GetParam();
    const RandomStreamParams params{seed + 777, 25, 400, 500, (seed % 2) == 0};
    const auto stream = random_stream(params);
    const Time delta = static_cast<Time>(1 + (seed % 40));
    const auto series = aggregate(stream, delta);
    const auto trips = dp_trips(series);

    // Per-pair staircase: departures and arrivals strictly increase.
    for (std::size_t i = 1; i < trips.size(); ++i) {
        const auto& prev = trips[i - 1];
        const auto& cur = trips[i];
        if (prev.u == cur.u && prev.v == cur.v) {
            EXPECT_LT(prev.dep, cur.dep) << "seed=" << seed;
            EXPECT_LT(prev.arr, cur.arr) << "seed=" << seed;
        }
    }
    for (const auto& t : trips) {
        EXPECT_NE(t.u, t.v);
        EXPECT_GE(t.dep, 1);
        EXPECT_LE(t.arr, series.num_windows());
        EXPECT_GE(t.hops, 1);
        EXPECT_LE(static_cast<Time>(t.hops), series_duration(t));  // Remark 2
        const double occ = series_occupancy(t);
        EXPECT_GT(occ, 0.0);
        EXPECT_LE(occ, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, TripInvariants, ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace natscale

// Unit tests for Definition 1: aggregation into disjoint equal-length windows.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "linkstream/aggregation.hpp"
#include "linkstream/graph_series.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

TEST(WindowMath, WindowOfIsOneBased) {
    EXPECT_EQ(window_of(0, 10), 1);
    EXPECT_EQ(window_of(9, 10), 1);
    EXPECT_EQ(window_of(10, 10), 2);
    EXPECT_EQ(window_of(25, 10), 3);
}

TEST(WindowMath, NumWindowsCeils) {
    EXPECT_EQ(num_windows(100, 10), 10);
    EXPECT_EQ(num_windows(101, 10), 11);
    EXPECT_EQ(num_windows(1, 10), 1);
    EXPECT_EQ(num_windows(10, 1), 10);
}

TEST(Aggregate, AssignsEventsToWindows) {
    LinkStream stream({{0, 1, 0}, {1, 2, 9}, {0, 2, 10}, {1, 2, 25}}, 3, 30);
    const auto series = aggregate(stream, 10);
    EXPECT_EQ(series.num_windows(), 3);
    EXPECT_EQ(series.delta(), 10);
    ASSERT_EQ(series.num_nonempty_windows(), 3u);
    EXPECT_EQ(series.snapshots()[0].k, 1);
    EXPECT_EQ(series.snapshots()[0].edges.size(), 2u);  // 0-1 and 1-2
    EXPECT_EQ(series.snapshots()[1].k, 2);
    EXPECT_EQ(series.snapshots()[2].k, 3);
}

TEST(Aggregate, DeduplicatesWithinWindow) {
    LinkStream stream({{0, 1, 0}, {0, 1, 3}, {1, 0, 5}}, 2, 10);
    const auto series = aggregate(stream, 10);
    ASSERT_EQ(series.num_nonempty_windows(), 1u);
    EXPECT_EQ(series.snapshots()[0].edges.size(), 1u);
    EXPECT_EQ(series.total_edges(), 1u);

    // Exact duplicate (u, v, t) events collapse as well, and a pair that
    // recurs in a later window appears once in each of its windows.
    const LinkStream repeats({{0, 1, 5}, {0, 1, 5}, {0, 1, 7}, {1, 2, 6}, {0, 1, 20}}, 3, 30);
    using Windows = std::vector<std::pair<WindowIndex, std::vector<Edge>>>;
    const auto windows_of = [&repeats](Time delta) {
        const auto repeated = aggregate(repeats, delta);
        Windows windows;
        for (const auto& snap : repeated.snapshots()) {
            windows.emplace_back(snap.k, snap.edges);
        }
        return windows;
    };
    EXPECT_EQ(windows_of(1),
              (Windows{{6, {{0, 1}}}, {7, {{1, 2}}}, {8, {{0, 1}}}, {21, {{0, 1}}}}));
    EXPECT_EQ(windows_of(10), (Windows{{1, {{0, 1}, {1, 2}}}, {3, {{0, 1}}}}));
    EXPECT_EQ(windows_of(30), (Windows{{1, {{0, 1}, {1, 2}}}}));
}

TEST(Aggregate, DirectedEdgesNotMerged) {
    LinkStream stream({{0, 1, 0}, {1, 0, 5}}, 2, 10, /*directed=*/true);
    const auto series = aggregate(stream, 10);
    EXPECT_EQ(series.snapshots()[0].edges.size(), 2u);
    EXPECT_TRUE(series.directed());
}

TEST(Aggregate, DeltaEqualToPeriodGivesOneWindow) {
    LinkStream stream({{0, 1, 0}, {1, 2, 99}}, 3, 100);
    const auto series = aggregate(stream, 100);
    EXPECT_EQ(series.num_windows(), 1);
    EXPECT_EQ(series.num_nonempty_windows(), 1u);
    EXPECT_EQ(series.snapshots()[0].edges.size(), 2u);
}

TEST(Aggregate, DeltaLargerThanPeriodAllowed) {
    LinkStream stream({{0, 1, 0}}, 2, 100);
    const auto series = aggregate(stream, 1000);
    EXPECT_EQ(series.num_windows(), 1);
}

TEST(Aggregate, DeltaOneKeepsResolution) {
    LinkStream stream({{0, 1, 0}, {1, 2, 5}}, 3, 10);
    const auto series = aggregate(stream, 1);
    EXPECT_EQ(series.num_windows(), 10);
    EXPECT_EQ(series.num_nonempty_windows(), 2u);
    EXPECT_EQ(series.snapshots()[0].k, 1);
    EXPECT_EQ(series.snapshots()[1].k, 6);
}

TEST(Aggregate, RejectsBadDelta) {
    LinkStream stream({{0, 1, 0}}, 2, 10);
    EXPECT_THROW(aggregate(stream, 0), contract_error);
    EXPECT_THROW(aggregate(stream, -5), contract_error);
}

TEST(Aggregate, EmptyStreamGivesEmptySeries) {
    LinkStream stream({}, 3, 10);
    const auto series = aggregate(stream, 2);
    EXPECT_EQ(series.num_windows(), 5);
    EXPECT_EQ(series.num_nonempty_windows(), 0u);
    EXPECT_EQ(series.total_edges(), 0u);
}

TEST(Aggregate, EdgeCountPartitionInvariant) {
    // Property: sum of per-window distinct edges equals the number of
    // distinct (window, edge) pairs of the stream, for any delta.
    Rng rng(2024);
    std::vector<Event> events;
    for (int i = 0; i < 500; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(20));
        NodeId v = static_cast<NodeId>(rng.uniform_index(20));
        if (u == v) v = (v + 1) % 20;
        events.push_back({u, v, rng.uniform_int(0, 999)});
    }
    LinkStream stream(std::move(events), 20, 1000);
    for (Time delta : {1, 3, 10, 137, 1000}) {
        const auto series = aggregate(stream, delta);
        std::set<std::tuple<WindowIndex, NodeId, NodeId>> distinct;
        for (const auto& e : stream.events()) {
            distinct.insert({window_of(e.t, delta), e.u, e.v});
        }
        EXPECT_EQ(series.total_edges(), distinct.size()) << "delta=" << delta;
        // Windows sorted strictly increasing, all within [1, K].
        WindowIndex prev = 0;
        for (const auto& snap : series.snapshots()) {
            EXPECT_GT(snap.k, prev);
            EXPECT_LE(snap.k, series.num_windows());
            prev = snap.k;
        }
    }
}

TEST(GraphSeries, ValidatesSnapshotsOnConstruction) {
    std::vector<Snapshot> bad1;
    bad1.push_back({2, {{0, 1}}});
    bad1.push_back({1, {{0, 1}}});  // not increasing
    EXPECT_THROW(GraphSeries(2, 5, 1, false, std::move(bad1)), contract_error);

    std::vector<Snapshot> bad2;
    bad2.push_back({1, {{0, 1}, {0, 1}}});  // duplicate edge
    EXPECT_THROW(GraphSeries(2, 5, 1, false, std::move(bad2)), contract_error);

    std::vector<Snapshot> bad3;
    bad3.push_back({9, {{0, 1}}});  // beyond K
    EXPECT_THROW(GraphSeries(2, 5, 1, false, std::move(bad3)), contract_error);
}

}  // namespace
}  // namespace natscale

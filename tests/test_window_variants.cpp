// Tests for the sliding-window and growing-window aggregation variants.
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/metrics.hpp"
#include "linkstream/aggregation.hpp"
#include "linkstream/window_variants.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

LinkStream toy_stream() {
    return LinkStream({{0, 1, 0}, {1, 2, 12}, {0, 2, 25}, {2, 3, 38}}, 4, 40);
}

/// True if window k of `series` holds `edge` (canonical form).
bool has_edge_at(const GraphSeries& series, WindowIndex k, Edge edge) {
    for (const Snapshot& snap : series.snapshots()) {
        if (snap.k == k) return std::binary_search(snap.edges.begin(), snap.edges.end(), edge);
    }
    return false;
}

TEST(SlidingWindows, StrideEqualDeltaMatchesDisjoint) {
    const auto stream = toy_stream();
    const auto disjoint = aggregate(stream, 10);
    const auto sliding = aggregate_sliding(stream, 10, 10);
    ASSERT_EQ(sliding.num_nonempty_windows(), disjoint.num_nonempty_windows());
    for (std::size_t i = 0; i < sliding.num_nonempty_windows(); ++i) {
        EXPECT_EQ(sliding.snapshots()[i].k, disjoint.snapshots()[i].k);
        EXPECT_EQ(sliding.snapshots()[i].edges, disjoint.snapshots()[i].edges);
    }
}

TEST(SlidingWindows, HalfStrideDuplicatesEdgesAcrossWindows) {
    const auto stream = toy_stream();
    const auto sliding = aggregate_sliding(stream, 10, 5);
    // Event at t=12 falls in windows [5,15) (k=2) and [10,20) (k=3).
    EXPECT_TRUE(has_edge_at(sliding, 2, {1, 2}));
    EXPECT_TRUE(has_edge_at(sliding, 3, {1, 2}));
    EXPECT_FALSE(has_edge_at(sliding, 4, {1, 2}));
    // More total edge slots than the disjoint series.
    EXPECT_GT(sliding.total_edges(), aggregate(stream, 10).total_edges());
}

TEST(SlidingWindows, WindowCountUsesStride) {
    const auto stream = toy_stream();
    const auto sliding = aggregate_sliding(stream, 10, 5);
    EXPECT_EQ(sliding.num_windows(), 8);  // ceil(40 / 5)
}

TEST(SlidingWindows, Validation) {
    const auto stream = toy_stream();
    EXPECT_THROW(aggregate_sliding(stream, 10, 0), contract_error);
    EXPECT_THROW(aggregate_sliding(stream, 10, 11), contract_error);  // stride > delta
    EXPECT_THROW(aggregate_sliding(stream, 0, 1), contract_error);
}

TEST(GrowingWindows, SnapshotsAccumulate) {
    const auto stream = toy_stream();
    const auto growing = aggregate_growing(stream, 10);
    EXPECT_EQ(growing.num_windows(), 4);
    ASSERT_EQ(growing.num_nonempty_windows(), 4u);
    EXPECT_EQ(growing.snapshots()[0].edges.size(), 1u);  // up to t<10
    EXPECT_EQ(growing.snapshots()[1].edges.size(), 2u);  // + 1-2
    EXPECT_EQ(growing.snapshots()[2].edges.size(), 3u);  // + 0-2
    EXPECT_EQ(growing.snapshots()[3].edges.size(), 4u);  // + 2-3
    // Monotone inclusion: every earlier edge persists.
    for (std::size_t i = 1; i < 4; ++i) {
        for (const auto& e : growing.snapshots()[i - 1].edges) {
            EXPECT_TRUE(std::binary_search(growing.snapshots()[i].edges.begin(),
                                           growing.snapshots()[i].edges.end(), e));
        }
    }
}

TEST(GrowingWindows, LastSnapshotEqualsTotalAggregation) {
    Rng rng(5);
    std::vector<Event> events;
    for (int i = 0; i < 200; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(12));
        NodeId v = static_cast<NodeId>(rng.uniform_index(12));
        if (u == v) v = (v + 1) % 12;
        events.push_back({u, v, rng.uniform_int(0, 999)});
    }
    LinkStream stream(std::move(events), 12, 1'000);
    const auto growing = aggregate_growing(stream, 100);
    const auto total = aggregate(stream, 1'000);
    EXPECT_EQ(growing.snapshots().back().edges, total.snapshots().front().edges);
}

TEST(GrowingWindows, LeadingEmptyWindowsSkipped) {
    LinkStream stream({{0, 1, 35}}, 2, 40);
    const auto growing = aggregate_growing(stream, 10);
    ASSERT_EQ(growing.num_nonempty_windows(), 1u);
    EXPECT_EQ(growing.snapshots()[0].k, 4);
}

TEST(GrowingWindows, DensityIsMonotone) {
    // The structural signature of cumulative aggregation.
    Rng rng(7);
    std::vector<Event> events;
    for (int i = 0; i < 300; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(15));
        NodeId v = static_cast<NodeId>(rng.uniform_index(15));
        if (u == v) v = (v + 1) % 15;
        events.push_back({u, v, rng.uniform_int(0, 4'999)});
    }
    LinkStream stream(std::move(events), 15, 5'000);
    const auto growing = aggregate_growing(stream, 500);
    double prev = -1.0;
    for (const auto& snap : growing.snapshots()) {
        const double d = density(snap.edges.size(), 15, false);
        EXPECT_GE(d, prev);
        prev = d;
    }
}

}  // namespace
}  // namespace natscale

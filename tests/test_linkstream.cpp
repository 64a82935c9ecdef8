// Unit tests for LinkStream construction, invariants and statistics.
#include <gtest/gtest.h>

#include "linkstream/link_stream.hpp"
#include "linkstream/stream_stats.hpp"
#include "util/contracts.hpp"

namespace natscale {
namespace {

TEST(LinkStream, EventsSortedChronologically) {
    LinkStream stream({{0, 1, 5}, {1, 2, 1}, {0, 2, 3}}, 3, 10);
    const auto events = stream.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].t, 1);
    EXPECT_EQ(events[1].t, 3);
    EXPECT_EQ(events[2].t, 5);
    EXPECT_EQ(stream.first_time(), 1);
    EXPECT_EQ(stream.last_time(), 5);
}

TEST(LinkStream, UndirectedEndpointsCanonicalized) {
    LinkStream stream({{2, 0, 1}}, 3, 10, /*directed=*/false);
    EXPECT_EQ(stream.events()[0].u, 0u);
    EXPECT_EQ(stream.events()[0].v, 2u);
}

TEST(LinkStream, DirectedEndpointsPreserved) {
    LinkStream stream({{2, 0, 1}}, 3, 10, /*directed=*/true);
    EXPECT_EQ(stream.events()[0].u, 2u);
    EXPECT_EQ(stream.events()[0].v, 0u);
}

TEST(LinkStream, DedupRemovesExactDuplicates) {
    LinkStream stream({{0, 1, 5}, {0, 1, 5}, {0, 1, 6}}, 2, 10, false, /*dedup=*/true);
    EXPECT_EQ(stream.num_events(), 2u);
}

TEST(LinkStream, KeepsDuplicatesByDefault) {
    LinkStream stream({{0, 1, 5}, {0, 1, 5}}, 2, 10);
    EXPECT_EQ(stream.num_events(), 2u);
}

TEST(LinkStream, RejectsInvalidEvents) {
    EXPECT_THROW(LinkStream({{0, 0, 1}}, 2, 10), contract_error);    // self-loop
    EXPECT_THROW(LinkStream({{0, 5, 1}}, 2, 10), contract_error);    // node out of range
    EXPECT_THROW(LinkStream({{0, 1, 10}}, 2, 10), contract_error);   // t >= T
    EXPECT_THROW(LinkStream({{0, 1, -1}}, 2, 10), contract_error);   // t < 0
    EXPECT_THROW(LinkStream({{0, 1, 1}}, 2, 0), contract_error);     // empty period
}

TEST(LinkStream, DistinctTimestamps) {
    LinkStream stream({{0, 1, 5}, {1, 2, 5}, {0, 2, 9}}, 3, 10);
    EXPECT_EQ(stream.num_distinct_timestamps(), 2u);
}

TEST(LinkStream, EmptyStreamAllowed) {
    LinkStream stream({}, 3, 10);
    EXPECT_TRUE(stream.empty());
    EXPECT_EQ(stream.num_distinct_timestamps(), 0u);
    EXPECT_THROW(stream.first_time(), contract_error);
}

TEST(LinkStream, SliceShiftsTimestamps) {
    LinkStream stream({{0, 1, 2}, {1, 2, 5}, {0, 2, 8}}, 3, 10);
    const auto sliced = stream.slice(4, 9);
    EXPECT_EQ(sliced.num_events(), 2u);
    EXPECT_EQ(sliced.events()[0].t, 1);  // 5 - 4
    EXPECT_EQ(sliced.events()[1].t, 4);  // 8 - 4
    EXPECT_EQ(sliced.period_end(), 5);
    EXPECT_EQ(sliced.num_nodes(), 3u);
}

TEST(LinkStream, SliceValidatesBounds) {
    LinkStream stream({{0, 1, 2}}, 2, 10);
    EXPECT_THROW(stream.slice(5, 5), contract_error);
    EXPECT_THROW(stream.slice(-1, 5), contract_error);
    EXPECT_THROW(stream.slice(0, 11), contract_error);
}

TEST(StreamStats, NodeEventCounts) {
    LinkStream stream({{0, 1, 1}, {0, 2, 2}, {0, 1, 3}}, 4, 10);
    const auto counts = node_event_counts(stream);
    ASSERT_EQ(counts.size(), 4u);
    EXPECT_EQ(counts[0], 3u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(counts[3], 0u);
}

TEST(StreamStats, ActivityPerNodePerDay) {
    // 4 nodes, 8 events over exactly 2 days -> 8 / (4 * 2) = 1 msg/node/day.
    std::vector<Event> events;
    for (int i = 0; i < 8; ++i) {
        events.push_back({0, 1, static_cast<Time>(i * 1000)});
    }
    LinkStream stream(std::move(events), 4, 2 * 86'400);
    const auto stats = compute_stream_stats(stream);
    EXPECT_DOUBLE_EQ(stats.events_per_node_per_day, 1.0);
    EXPECT_EQ(stats.active_nodes, 2u);
    EXPECT_DOUBLE_EQ(stats.duration_days, 2.0);
}

TEST(StreamStats, MeanIntercontact) {
    // Node 0: 4 events -> T/4; node 1: 4 events -> T/4; node 2: 2 -> T/2.
    LinkStream stream({{0, 1, 0}, {0, 1, 10}, {0, 1, 20}, {0, 1, 30}, {0, 2, 40}, {1, 2, 50}},
                      3, 100);
    const auto stats = compute_stream_stats(stream);
    // counts: node0=5, node1=5, node2=2 -> mean of 100/5, 100/5, 100/2.
    EXPECT_DOUBLE_EQ(stats.mean_intercontact_ticks, (20.0 + 20.0 + 50.0) / 3.0);
}

TEST(StreamStats, EmptyStream) {
    LinkStream stream({}, 3, 10);
    const auto stats = compute_stream_stats(stream);
    EXPECT_EQ(stats.active_nodes, 0u);
    EXPECT_DOUBLE_EQ(stats.mean_intercontact_ticks, 0.0);
}

TEST(StreamStats, TicksPerSecondScalesDuration) {
    LinkStream stream({{0, 1, 0}}, 2, 86'400);
    const auto stats = compute_stream_stats(stream, 2.0);  // 2 s per tick
    EXPECT_DOUBLE_EQ(stats.duration_days, 2.0);
}

}  // namespace
}  // namespace natscale

// Tests for the reachability census and retention measures.
#include <gtest/gtest.h>

#include "linkstream/aggregation.hpp"
#include "temporal/reachability_stats.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

TEST(ReachabilityCensus, ChainStream) {
    // 0-1@0, 1-2@10: reachable ordered pairs in the stream:
    // (0,1),(1,0),(1,2),(2,1),(0,2) = 5.
    LinkStream stream({{0, 1, 0}, {1, 2, 10}}, 3, 20);
    const auto census = reachability_census(stream);
    EXPECT_EQ(census.reachable_pairs, 5u);
    ASSERT_EQ(census.out_reach.size(), 3u);
    EXPECT_EQ(census.out_reach[0], 2u);  // reaches 1 and 2
    EXPECT_EQ(census.out_reach[1], 2u);
    EXPECT_EQ(census.out_reach[2], 1u);  // only 1
    EXPECT_EQ(census.max_out_reach, 2u);
}

TEST(ReachabilityCensus, SeriesNeverExceedsStream) {
    Rng rng(31);
    std::vector<Event> events;
    for (int i = 0; i < 300; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(20));
        NodeId v = static_cast<NodeId>(rng.uniform_index(20));
        if (u == v) v = (v + 1) % 20;
        events.push_back({u, v, rng.uniform_int(0, 4'999)});
    }
    LinkStream stream(std::move(events), 20, 5'000);
    const auto truth = reachability_census(stream);
    for (Time delta : {1, 13, 200, 2'500, 5'000}) {
        const auto aggregated = reachability_census(aggregate(stream, delta));
        EXPECT_LE(aggregated.reachable_pairs, truth.reachable_pairs) << "delta=" << delta;
        for (NodeId u = 0; u < 20; ++u) {
            EXPECT_LE(aggregated.out_reach[u], truth.out_reach[u]);
        }
    }
    // At the resolution the series preserves everything (strictly increasing
    // timestamps map to strictly increasing windows).
    const auto finest = reachability_census(aggregate(stream, 1));
    EXPECT_EQ(finest.reachable_pairs, truth.reachable_pairs);
}

TEST(ReachabilityCensus, RetentionBounds) {
    Rng rng(32);
    std::vector<Event> events;
    for (int i = 0; i < 200; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(15));
        NodeId v = static_cast<NodeId>(rng.uniform_index(15));
        if (u == v) v = (v + 1) % 15;
        events.push_back({u, v, rng.uniform_int(0, 1'999)});
    }
    LinkStream stream(std::move(events), 15, 2'000);
    const auto truth = reachability_census(stream);
    const auto census_at = [&](Time delta) {
        return reachability_census(aggregate(stream, delta));
    };
    EXPECT_DOUBLE_EQ(reachable_pairs_retention(truth, census_at(1)), 1.0);
    // Retention is monotone along chains of NESTED windows (each delta
    // divides the next): a path over coarse windows crosses coarse
    // boundaries, which are also fine boundaries.
    double prev = 1.0;
    for (Time delta : {10, 200, 2'000}) {
        const double retention = reachable_pairs_retention(truth, census_at(delta));
        EXPECT_GE(retention, 0.0);
        EXPECT_LE(retention, prev + 1e-12);
        prev = retention;
    }
    // An "aggregated" census reaching more pairs than the truth is refused.
    const auto coarsest = census_at(2'000);
    ASSERT_LT(coarsest.reachable_pairs, truth.reachable_pairs);
    EXPECT_THROW(reachable_pairs_retention(coarsest, truth), contract_error);
}

TEST(ReachabilityCensus, EmptyStream) {
    LinkStream stream({}, 5, 10);
    const auto census = reachability_census(stream);
    EXPECT_EQ(census.reachable_pairs, 0u);
    EXPECT_EQ(census.max_out_reach, 0u);
    EXPECT_DOUBLE_EQ(
        reachable_pairs_retention(census, reachability_census(aggregate(stream, 5))), 1.0);
}

TEST(ReachabilityCensus, DirectedAsymmetry) {
    LinkStream stream({{0, 1, 0}, {1, 2, 10}}, 3, 20, /*directed=*/true);
    const auto census = reachability_census(stream);
    EXPECT_EQ(census.reachable_pairs, 3u);  // (0,1),(1,2),(0,2)
    EXPECT_EQ(census.out_reach[2], 0u);
    EXPECT_EQ(census.max_source, 0u);
}

}  // namespace
}  // namespace natscale

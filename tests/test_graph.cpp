// Unit tests for src/graph: connected components and metrics of edge lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/connected_components.hpp"
#include "graph/metrics.hpp"
#include "linkstream/aggregation.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

// 0-1, 1-2, 0-2 triangle on four nodes; node 3 isolated.
const std::vector<Edge> kTriangle{{0, 1}, {1, 2}, {0, 2}};

/// Reference for summarize_components: breadth-first search over the
/// undirected adjacency of `edges` on `n` nodes.
ComponentSummary bfs_components(const std::vector<Edge>& edges, NodeId n) {
    std::vector<std::vector<NodeId>> adjacency(n);
    for (const auto& [u, v] : edges) {
        adjacency[u].push_back(v);
        adjacency[v].push_back(u);
    }
    ComponentSummary out;
    std::vector<bool> seen(n, false);
    for (NodeId start = 0; start < n; ++start) {
        if (seen[start] || adjacency[start].empty()) continue;
        std::vector<NodeId> queue{start};
        seen[start] = true;
        for (std::size_t head = 0; head < queue.size(); ++head) {
            for (const NodeId next : adjacency[queue[head]]) {
                if (!seen[next]) {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
        }
        const auto size = static_cast<std::uint32_t>(queue.size());
        out.largest_component = std::max(out.largest_component, size);
        out.non_isolated_nodes += size;
    }
    return out;
}

TEST(ConnectedComponents, TriangleAndIsolated) {
    EpochUnionFind uf(4);
    const ComponentSummary summary = summarize_components(kTriangle, uf);
    EXPECT_EQ(summary.largest_component, 3u);
    EXPECT_EQ(summary.non_isolated_nodes, 3u);
}

TEST(ConnectedComponents, EmptyGraphAllSingletons) {
    EpochUnionFind uf(5);
    const ComponentSummary summary = summarize_components({}, uf);
    EXPECT_EQ(summary.largest_component, 0u);  // no edge, no component of size >= 2
    EXPECT_EQ(summary.non_isolated_nodes, 0u);
}

TEST(ConnectedComponents, DirectedUsesWeakConnectivity) {
    const std::vector<Edge> edges{{0, 1}, {2, 1}};
    EpochUnionFind uf(3);
    EXPECT_EQ(summarize_components(edges, uf).largest_component, 3u);
}

TEST(EpochUnionFind, ResetForgetsUnions) {
    EpochUnionFind uf(4);
    uf.unite(0, 1);
    uf.unite(1, 2);
    EXPECT_EQ(uf.component_size(0), 3u);
    uf.reset();
    EXPECT_EQ(uf.component_size(0), 1u);
    EXPECT_NE(uf.find(0), uf.find(1));
}

TEST(EpochUnionFind, UniteReportsNovelty) {
    EpochUnionFind uf(3);
    EXPECT_TRUE(uf.unite(0, 1));
    EXPECT_FALSE(uf.unite(1, 0));
    EXPECT_TRUE(uf.unite(1, 2));
}

TEST(SummarizeComponents, MatchesStaticGraphPath) {
    Rng rng(99);
    EpochUnionFind uf(30);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<Edge> edges;
        const int m = static_cast<int>(rng.uniform_int(0, 40));
        for (int i = 0; i < m; ++i) {
            const NodeId u = static_cast<NodeId>(rng.uniform_index(30));
            NodeId v = static_cast<NodeId>(rng.uniform_index(30));
            if (u == v) v = (v + 1) % 30;
            edges.emplace_back(u, v);
        }
        const ComponentSummary summary = summarize_components(edges, uf);
        const ComponentSummary expected = bfs_components(edges, 30);
        EXPECT_EQ(summary.largest_component, expected.largest_component) << "trial " << trial;
        EXPECT_EQ(summary.non_isolated_nodes, expected.non_isolated_nodes) << "trial " << trial;
    }
}

TEST(Metrics, DensityUndirected) {
    EXPECT_DOUBLE_EQ(density(kTriangle.size(), 4, false), 3.0 / 6.0);  // 3 edges / C(4,2)
}

TEST(Metrics, DensityDirected) {
    EXPECT_DOUBLE_EQ(density(2, 3, true), 2.0 / 6.0);  // 0->1, 1->0 of 3 x 2 arcs
}

TEST(Metrics, DensityFromCountsMatches) {
    // The edge count of an aggregated snapshot is all density needs: window
    // 1 of this stream holds 0-1 and 1-2 (0-1 twice), window 2 holds 2-3.
    const LinkStream stream({{0, 1, 0}, {1, 0, 3}, {1, 2, 5}, {2, 3, 12}}, 5, 20);
    const GraphSeries series = aggregate(stream, 10);
    ASSERT_EQ(series.num_nonempty_windows(), 2u);
    const auto snapshot_density = [&series](std::size_t i) {
        return density(series.snapshots()[i].edges.size(), series.num_nodes(),
                       series.directed());
    };
    EXPECT_DOUBLE_EQ(snapshot_density(0), 2.0 / 10.0);  // 2 edges / C(5,2)
    EXPECT_DOUBLE_EQ(snapshot_density(1), 1.0 / 10.0);
}

TEST(Metrics, DensityOfTinyGraphIsZero) {
    EXPECT_DOUBLE_EQ(density(0, 1, false), 0.0);
    EXPECT_DOUBLE_EQ(density(0, 0, false), 0.0);
}

TEST(Metrics, NonIsolatedCountsBothDirections) {
    const std::vector<Edge> edges{{0, 1}};
    EpochUnionFind uf(3);
    EXPECT_EQ(summarize_components(edges, uf).non_isolated_nodes, 2u);  // 1 has only an in-edge
    EXPECT_EQ(summarize_components(kTriangle, uf).non_isolated_nodes, 3u);
}

}  // namespace
}  // namespace natscale

// GraphSeries: the series of snapshots G_Delta = (G_k), k = 1..K, obtained by
// aggregating a link stream on disjoint windows of equal length Delta
// (Definition 1 of the paper).
//
// Storage is sparse over windows: only non-empty snapshots are materialized,
// because at fine aggregation periods the overwhelming majority of windows
// holds no edge (e.g. Irvine at Delta = 1 s: ~4.2M windows, <48k non-empty).
// All algorithms in temporal/ iterate over the non-empty snapshots only; the
// empty ones still count for durations and distances, which the distance
// accumulator integrates analytically.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace natscale {

/// One non-empty snapshot: the distinct edges occurring in window `k`
/// (1-based), i.e. with timestamps in [(k-1)*Delta, k*Delta).
struct Snapshot {
    WindowIndex k = 0;
    std::vector<Edge> edges;  // canonical (u < v if undirected), sorted, unique
};

class GraphSeries {
public:
    /// `snapshots` must be sorted by strictly increasing k, each within
    /// [1, num_windows], with non-empty deduplicated canonical edge lists.
    GraphSeries(NodeId num_nodes, WindowIndex num_windows, Time delta, bool directed,
                std::vector<Snapshot> snapshots);

    NodeId num_nodes() const noexcept { return num_nodes_; }

    /// K: total number of windows covering the period of study.
    WindowIndex num_windows() const noexcept { return num_windows_; }

    /// The aggregation period, in ticks.
    Time delta() const noexcept { return delta_; }

    bool directed() const noexcept { return directed_; }

    /// Non-empty snapshots in increasing window order.
    std::span<const Snapshot> snapshots() const noexcept { return snapshots_; }

    std::size_t num_nonempty_windows() const noexcept { return snapshots_.size(); }

    /// M: total number of edges over all snapshots (the M of the paper's
    /// O(nM) complexity statement).
    std::size_t total_edges() const noexcept { return total_edges_; }

private:
    NodeId num_nodes_ = 0;
    WindowIndex num_windows_ = 0;
    Time delta_ = 0;
    bool directed_ = false;
    std::vector<Snapshot> snapshots_;
    std::size_t total_edges_ = 0;
};

}  // namespace natscale

// Connected components of a snapshot's edge list, through a reusable
// union-find structure with O(1) amortized reset.
//
// The classical-property sweep (paper Fig. 2, top-right) needs the largest
// connected component of every snapshot for every aggregation period.  At the
// finest period this means millions of tiny snapshots, so re-allocating a
// union-find per snapshot would dominate the cost; EpochUnionFind instead
// invalidates its state lazily with an epoch counter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace natscale {

/// Union-find over [0, n) with union-by-size, path halving, and O(1) reset.
class EpochUnionFind {
public:
    explicit EpochUnionFind(NodeId num_nodes);

    /// Forgets all unions; costs O(1) until nodes are touched again.
    void reset() noexcept { ++epoch_; }

    NodeId find(NodeId x);

    /// Returns false if x and y were already connected.
    bool unite(NodeId x, NodeId y);

    /// Size of the component containing x.
    std::uint32_t component_size(NodeId x);

    NodeId num_nodes() const noexcept { return static_cast<NodeId>(parent_.size()); }

private:
    void touch(NodeId x);

    std::vector<NodeId> parent_;
    std::vector<std::uint32_t> size_;
    std::vector<std::uint64_t> stamp_;
    std::uint64_t epoch_ = 1;
};

/// Largest component (weakly connected if the edges are directed) and
/// non-isolated-node count of an edge list.  `uf` must cover all node ids
/// appearing in `edges`; it is reset on entry.
struct ComponentSummary {
    std::uint32_t largest_component = 0;  // 0 if no edges
    std::uint32_t non_isolated_nodes = 0;
};
ComponentSummary summarize_components(std::span<const Edge> edges, EpochUnionFind& uf);

}  // namespace natscale

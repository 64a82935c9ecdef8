#include "graph/connected_components.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace natscale {

EpochUnionFind::EpochUnionFind(NodeId num_nodes)
    : parent_(num_nodes), size_(num_nodes, 1), stamp_(num_nodes, 0) {}

void EpochUnionFind::touch(NodeId x) {
    if (stamp_[x] != epoch_) {
        stamp_[x] = epoch_;
        parent_[x] = x;
        size_[x] = 1;
    }
}

NodeId EpochUnionFind::find(NodeId x) {
    NATSCALE_EXPECTS(x < parent_.size());
    touch(x);
    while (parent_[x] != x) {
        touch(parent_[x]);
        parent_[x] = parent_[parent_[x]];  // path halving
        x = parent_[x];
    }
    return x;
}

bool EpochUnionFind::unite(NodeId x, NodeId y) {
    NodeId rx = find(x);
    NodeId ry = find(y);
    if (rx == ry) return false;
    if (size_[rx] < size_[ry]) std::swap(rx, ry);
    parent_[ry] = rx;
    size_[rx] += size_[ry];
    return true;
}

std::uint32_t EpochUnionFind::component_size(NodeId x) { return size_[find(x)]; }

ComponentSummary summarize_components(std::span<const Edge> edges, EpochUnionFind& uf) {
    uf.reset();
    ComponentSummary out;
    // A node is seen for the first time in this epoch exactly when find()
    // leaves it a singleton root: every earlier appearance was immediately
    // followed by a unite() with its edge partner, which makes its component
    // size at least 2 from then on.
    for (const auto& [u, v] : edges) {
        if (uf.find(u) == u && uf.component_size(u) == 1) ++out.non_isolated_nodes;
        if (uf.find(v) == v && uf.component_size(v) == 1) ++out.non_isolated_nodes;
        uf.unite(u, v);
        out.largest_component = std::max(out.largest_component, uf.component_size(u));
    }
    return out;
}

}  // namespace natscale

// Classical per-snapshot graph metrics used by the paper's Fig. 2.
#pragma once

#include <cstddef>

#include "util/types.hpp"

namespace natscale {

/// Edge density of a snapshot with `num_edges` distinct edges on
/// `num_nodes` nodes: m / (n(n-1)/2) for undirected graphs, m / (n(n-1))
/// for directed.  0 for graphs with fewer than 2 nodes.
double density(std::size_t num_edges, NodeId num_nodes, bool directed) noexcept;

}  // namespace natscale

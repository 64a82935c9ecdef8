#include "graph/metrics.hpp"

namespace natscale {

double density(std::size_t num_edges, NodeId num_nodes, bool directed) noexcept {
    if (num_nodes < 2) return 0.0;
    const double n = static_cast<double>(num_nodes);
    const double possible = directed ? n * (n - 1.0) : n * (n - 1.0) / 2.0;
    return static_cast<double>(num_edges) / possible;
}

}  // namespace natscale

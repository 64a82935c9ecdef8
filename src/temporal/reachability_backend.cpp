#include "temporal/reachability_backend.hpp"

namespace natscale {

ReachabilityBackend select_backend(NodeId num_nodes, std::size_t total_arcs,
                                   const ReachabilityOptions& options) {
    if (options.distances != nullptr) return ReachabilityBackend::dense;

    const std::size_t n = num_nodes;
    const std::size_t dense_bytes = n * n * kDensePairBytes;
    if (n != 0 && dense_bytes / n / n != kDensePairBytes) {
        return ReachabilityBackend::sparse;  // n^2 overflowed size_t
    }
    if (dense_bytes > kDenseMemoryBudgetBytes) return ReachabilityBackend::sparse;
    if (num_nodes >= kSparseMinNodes &&
        static_cast<double>(total_arcs) <=
            kSparseDensityLimit * static_cast<double>(num_nodes)) {
        return ReachabilityBackend::sparse;
    }
    return ReachabilityBackend::dense;
}

}  // namespace natscale

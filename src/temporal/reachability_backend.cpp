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

void ReachabilityEngine::restore_state(NodeId n, std::vector<ReachRow> rows,
                                       ReachabilityBackend backend) {
    if (backend == ReachabilityBackend::dense && TemporalReachability::fits_reversed(rows)) {
        last_ = ReachabilityBackend::dense;
        dense_.restore_state(n, rows);
    } else {
        last_ = ReachabilityBackend::sparse;
        sparse_.restore_state(n, std::move(rows));
    }
}

void ReachabilityEngine::leave_dense() {
    std::vector<ReachRow> rows = dense_.state_rows();
    const auto n = static_cast<NodeId>(rows.size());
    dense_ = TemporalReachability{};
    sparse_.restore_state(n, std::move(rows));
    last_ = ReachabilityBackend::sparse;
}

}  // namespace natscale

#include "temporal/sparse_reachability.hpp"

namespace natscale {

void SparseTemporalReachability::prepare(NodeId n) {
    n_ = n;
    rows_.resize(n);
    for (Row& row : rows_) row.clear();
    if (slot_.size() < n) slot_.assign(n, -1);
    std::fill(slot_.begin(), slot_.end(), -1);
    active_.clear();
}

void SparseTemporalReachability::restore_state(NodeId n, std::vector<Row> rows) {
    NATSCALE_EXPECTS(rows.size() == n);
    for (const Row& row : rows) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            NATSCALE_EXPECTS(row[i].v < n);
            NATSCALE_EXPECTS(i == 0 || row[i - 1].v < row[i].v);
        }
    }
    prepare(n);
    rows_ = std::move(rows);
}

}  // namespace natscale

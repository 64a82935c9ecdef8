#include "temporal/reachability.hpp"

#include <algorithm>

namespace natscale {

void TemporalReachability::prepare(NodeId n) {
    n_ = n;
    reversed_ = false;
    state_.assign(static_cast<std::size_t>(n) * n, kUnreachablePacked);
    const std::size_t mask_words = (static_cast<std::size_t>(n) + 63) / 64;
    if (improved_.size() < mask_words) {
        improved_.resize(mask_words);
        changed_.resize(mask_words);
    }
    if (slot_.size() < n) slot_.assign(n, -1);
    std::fill(slot_.begin(), slot_.end(), -1);
    active_.clear();
}

void TemporalReachability::begin(NodeId n) {
    prepare(n);
    reversed_ = true;
}

std::vector<ReachRow> TemporalReachability::state_rows() const {
    std::vector<ReachRow> rows(n_);
    for_each_finite([&rows](NodeId u, NodeId v, Time arr, Hops hops) {
        rows[u].push_back({v, hops, arr});
    });
    return rows;
}

bool TemporalReachability::fits_reversed(const std::vector<ReachRow>& rows) {
    return std::all_of(rows.begin(), rows.end(), [](const ReachRow& row) {
        return std::all_of(row.begin(), row.end(), [](const ReachEntry& entry) {
            return entry.arr <= -1 && entry.arr >= -kMaxReversedWindow;
        });
    });
}

void TemporalReachability::restore_state(NodeId n, const std::vector<ReachRow>& rows) {
    NATSCALE_EXPECTS(rows.size() == n && fits_reversed(rows));
    begin(n);
    for (NodeId u = 0; u < n; ++u) {
        const ReachRow& row = rows[u];
        PackedState* cells = &state_[static_cast<std::size_t>(u) * n];
        for (std::size_t i = 0; i < row.size(); ++i) {
            NATSCALE_EXPECTS(row[i].v < n && (i == 0 || row[i - 1].v < row[i].v));
            const auto rank = static_cast<std::uint32_t>(kUnreachableRank + row[i].arr);
            cells[row[i].v] = (static_cast<PackedState>(rank) << 32) |
                              static_cast<std::uint32_t>(row[i].hops);
        }
    }
}

namespace detail {

void build_instant_arcs(std::vector<Edge>& arcs, std::span<const Edge> edges, bool directed) {
    arcs.clear();
    arcs.reserve(directed ? edges.size() : 2 * edges.size());
    for (const auto& [u, v] : edges) {
        arcs.emplace_back(u, v);
        if (!directed) arcs.emplace_back(v, u);
    }
    std::sort(arcs.begin(), arcs.end());
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
}

}  // namespace detail

}  // namespace natscale

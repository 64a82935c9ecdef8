#include "linkstream/graph_series.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace natscale {

GraphSeries::GraphSeries(NodeId num_nodes, WindowIndex num_windows, Time delta, bool directed,
                         std::vector<Snapshot> snapshots)
    : num_nodes_(num_nodes), num_windows_(num_windows), delta_(delta), directed_(directed),
      snapshots_(std::move(snapshots)) {
    NATSCALE_EXPECTS(num_windows_ >= 1);
    NATSCALE_EXPECTS(delta_ >= 1);
    WindowIndex prev = 0;
    for (const auto& snap : snapshots_) {
        NATSCALE_EXPECTS(snap.k > prev && snap.k <= num_windows_);
        NATSCALE_EXPECTS(!snap.edges.empty());
        NATSCALE_EXPECTS(std::is_sorted(snap.edges.begin(), snap.edges.end()));
        NATSCALE_EXPECTS(std::adjacent_find(snap.edges.begin(), snap.edges.end()) ==
                         snap.edges.end());
        prev = snap.k;
        total_edges_ += snap.edges.size();
    }
}

}  // namespace natscale

#include "temporal/reachability_stats.hpp"

#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/contracts.hpp"

namespace natscale {

namespace {

/// Counts the finite entries of the last scan's rows: O(reachable pairs)
/// on the sparse backend, O(n^2) on the dense one.
ReachabilityCensus census_from_engine(const ReachabilityEngine& engine, NodeId n) {
    ReachabilityCensus census;
    census.out_reach.assign(n, 0);
    const std::vector<ReachRow> rows = engine.state_rows();
    for (NodeId u = 0; u < n; ++u) {
        for (const ReachEntry& entry : rows[u]) {
            if (entry.v != u) ++census.out_reach[u];
        }
        census.reachable_pairs += census.out_reach[u];
        if (census.out_reach[u] > census.max_out_reach) {
            census.max_out_reach = census.out_reach[u];
            census.max_source = u;
        }
    }
    return census;
}

}  // namespace

ReachabilityCensus reachability_census(const GraphSeries& series) {
    ReachabilityEngine engine;
    engine.scan_series(series, [](const MinimalTrip&) {});
    return census_from_engine(engine, series.num_nodes());
}

ReachabilityCensus reachability_census(const LinkStream& stream) {
    return reachability_census(aggregate(stream, 1));
}

double reachable_pairs_retention(const ReachabilityCensus& truth,
                                 const ReachabilityCensus& aggregated) {
    NATSCALE_EXPECTS(aggregated.reachable_pairs <= truth.reachable_pairs);
    if (truth.reachable_pairs == 0) return 1.0;
    return static_cast<double>(aggregated.reachable_pairs) /
           static_cast<double>(truth.reachable_pairs);
}

}  // namespace natscale

#include "core/classical_properties.hpp"

#include "graph/connected_components.hpp"
#include "graph/metrics.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/distance_stats.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"

namespace natscale {

ClassicalPoint classical_properties(const LinkStream& stream, Time delta, bool with_distances) {
    NATSCALE_EXPECTS(!stream.empty());
    const GraphSeries series = aggregate(stream, delta);
    const NodeId n = series.num_nodes();

    ClassicalPoint point;
    point.delta = delta;

    KahanSum density_sum;
    KahanSum degree_sum;
    KahanSum non_isolated_sum;
    KahanSum lcc_sum;
    EpochUnionFind uf(n);
    for (const auto& snap : series.snapshots()) {
        density_sum.add(density(snap.edges.size(), n, series.directed()));
        degree_sum.add((series.directed() ? 1.0 : 2.0) *
                       static_cast<double>(snap.edges.size()) / static_cast<double>(n));
        const ComponentSummary summary = summarize_components(snap.edges, uf);
        non_isolated_sum.add(static_cast<double>(summary.non_isolated_nodes));
        lcc_sum.add(static_cast<double>(summary.largest_component));
    }
    const double nonempty = static_cast<double>(series.num_nonempty_windows());
    const double all_windows = static_cast<double>(series.num_windows());
    if (nonempty > 0) {
        point.mean_density_nonempty = density_sum.value() / nonempty;
        point.mean_degree_nonempty = degree_sum.value() / nonempty;
        point.mean_non_isolated = non_isolated_sum.value() / nonempty;
        point.mean_largest_cc = lcc_sum.value() / nonempty;
    }
    point.mean_density_all = density_sum.value() / all_windows;

    if (with_distances) {
        DistanceAccumulator accumulator;
        ReachabilityOptions options;
        options.distances = &accumulator;  // select_backend keeps this scan dense
        ReachabilityEngine engine;
        engine.scan_series(series, [](const MinimalTrip&) {}, options);
        const DistanceStats& stats = accumulator.stats();
        point.mean_dtime_windows = stats.mean_dtime_windows();
        point.mean_dhops = stats.mean_dhops();
        point.mean_dabstime_ticks = stats.mean_dabstime_ticks(delta);
        const double total_triples = static_cast<double>(n) * (static_cast<double>(n) - 1.0) *
                                     static_cast<double>(series.num_windows());
        point.finite_pairs_fraction =
            total_triples == 0.0 ? 0.0 : stats.finite_count / total_triples;
    }
    return point;
}

std::vector<ClassicalPoint> classical_curve(const LinkStream& stream,
                                            const std::vector<Time>& deltas,
                                            bool with_distances) {
    std::vector<ClassicalPoint> curve;
    curve.reserve(deltas.size());
    for (Time delta : deltas) {
        curve.push_back(classical_properties(stream, delta, with_distances));
    }
    return curve;
}

}  // namespace natscale

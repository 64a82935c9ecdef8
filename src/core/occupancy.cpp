#include "core/occupancy.hpp"

#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"

namespace natscale {

Histogram01 occupancy_histogram(const GraphSeries& series, std::size_t num_bins) {
    Histogram01 hist(num_bins);
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip& trip) {
        hist.add(series_occupancy(trip));
    });
    return hist;
}

Histogram01 occupancy_histogram(const LinkStream& stream, Time delta, std::size_t num_bins) {
    return occupancy_histogram(aggregate(stream, delta), num_bins);
}

EmpiricalDistribution occupancy_distribution(const GraphSeries& series) {
    EmpiricalDistribution dist;
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip& trip) {
        dist.add(series_occupancy(trip));
    });
    return dist;
}

std::uint64_t count_minimal_trips(const GraphSeries& series) {
    std::uint64_t count = 0;
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip&) { ++count; });
    return count;
}

}  // namespace natscale

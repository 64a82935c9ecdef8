#include "core/occupancy.hpp"

#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"

namespace natscale {

namespace {

ReachabilityOptions options_for(ReachabilityBackend backend) {
    ReachabilityOptions options;
    options.backend = backend;
    return options;
}

}  // namespace

Histogram01 occupancy_histogram(const GraphSeries& series, std::size_t num_bins,
                                ReachabilityBackend backend) {
    Histogram01 hist(num_bins);
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip& trip) {
        hist.add(series_occupancy(trip));
    }, options_for(backend));
    return hist;
}

Histogram01 occupancy_histogram(const LinkStream& stream, Time delta, std::size_t num_bins,
                                ReachabilityBackend backend) {
    return occupancy_histogram(aggregate(stream, delta), num_bins, backend);
}

EmpiricalDistribution occupancy_distribution(const GraphSeries& series,
                                             ReachabilityBackend backend) {
    EmpiricalDistribution dist;
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip& trip) {
        dist.add(series_occupancy(trip));
    }, options_for(backend));
    return dist;
}

std::uint64_t count_minimal_trips(const GraphSeries& series, ReachabilityBackend backend) {
    std::uint64_t count = 0;
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip&) { ++count; }, options_for(backend));
    return count;
}

}  // namespace natscale

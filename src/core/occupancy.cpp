#include "core/occupancy.hpp"

#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"

namespace natscale {

void OccupancyTally::grow(Time duration) {
    rows_ = duration;
    cells_.resize(cell(duration, static_cast<Hops>(duration)) + 1);
}

void OccupancyTally::flush() noexcept {
    // Histogram01 adds are order-independent, so first-count order gives
    // the bits a walk of the whole table would.
    for (const std::uint32_t key : counted_) {
        const Time d = key >> 16;
        const auto h = static_cast<Hops>(key & 0xFFFF);
        std::uint64_t& count = cells_[cell(d, h)];
        histogram_->add(static_cast<double>(h) / static_cast<double>(d), count);
        count = 0;
    }
    counted_.clear();
}

Histogram01 occupancy_histogram(const GraphSeries& series, std::size_t num_bins) {
    Histogram01 hist(num_bins);
    ReachabilityEngine engine;
    engine.scan_series(series, OccupancyTally(hist));
    return hist;
}

Histogram01 occupancy_histogram(const LinkStream& stream, Time delta, std::size_t num_bins) {
    return occupancy_histogram(aggregate(stream, delta), num_bins);
}

std::uint64_t count_minimal_trips(const GraphSeries& series) {
    std::uint64_t count = 0;
    ReachabilityEngine engine;
    engine.scan_series(series, [&](const MinimalTrip&) { ++count; });
    return count;
}

}  // namespace natscale

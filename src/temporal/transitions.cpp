#include "temporal/transitions.hpp"

#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/contracts.hpp"

namespace natscale {

ShortestTransitionSet::ShortestTransitionSet(const LinkStream& stream) {
    ReachabilityEngine engine;
    engine.scan_series(aggregate(stream, 1), [&](const MinimalTrip& trip) {
        if (trip.hops == 2) {
            hop_times_.emplace_back(trip.dep - 1, trip.arr - 1);
        }
    });
}

double ShortestTransitionSet::lost_fraction(Time delta) const {
    NATSCALE_EXPECTS(delta >= 1);
    if (hop_times_.empty()) return 0.0;
    std::size_t lost = 0;
    for (const auto& [t1, t2] : hop_times_) {
        if (window_of(t1, delta) == window_of(t2, delta)) ++lost;
    }
    return static_cast<double>(lost) / static_cast<double>(hop_times_.size());
}

}  // namespace natscale

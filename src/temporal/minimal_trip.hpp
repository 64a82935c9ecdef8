// Minimal trips (Definition 5) and occupancy rates (Definition 7).
#pragma once

#include "util/contracts.hpp"
#include "util/types.hpp"

namespace natscale {

/// A minimal trip (u, v, dep, arr): a temporal path from u to v departs and
/// arrives within [dep, arr], and no trip between u and v fits in a strictly
/// smaller sub-interval.  `hops` is the minimum number of hops among temporal
/// paths departing at `dep` and arriving at `arr` (the quantity entering the
/// occupancy rate).
///
/// `dep`/`arr` are window indices (1-based) of the scanned graph series.  A
/// link stream is scanned as its Delta = 1 series, whose window k holds the
/// events at t = k - 1; the stream analyses that keep times
/// (temporal/transitions, temporal/trip_store) store t = k - 1.
struct MinimalTrip {
    NodeId u = 0;
    NodeId v = 0;
    Time dep = 0;
    Time arr = 0;
    Hops hops = 0;

    friend constexpr bool operator==(const MinimalTrip&, const MinimalTrip&) = default;
};

/// Duration of a trip in a graph series: arr - dep + 1.  Each index is a
/// whole window, so a single-window trip lasts one window (Definition 4).
constexpr Time series_duration(const MinimalTrip& trip) {
    return trip.arr - trip.dep + 1;
}

/// Occupancy rate occ(P) = hops(P) / time(P) of a minimal trip in a graph
/// series; always in (0, 1] by Remark 2 of the paper.
inline double series_occupancy(const MinimalTrip& trip) {
    const Time duration = series_duration(trip);
    NATSCALE_EXPECTS(duration >= 1 && trip.hops >= 1);
    NATSCALE_EXPECTS(trip.hops <= duration);
    return static_cast<double>(trip.hops) / static_cast<double>(duration);
}

}  // namespace natscale

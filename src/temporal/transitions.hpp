// Shortest transitions of a link stream and the aggregation loss they
// measure (paper Section 8, Fig. 8 left).
//
// A transition is a two-hop temporal path (a,b,t1),(b,c,t2); it is a
// *shortest* transition when (a,c,t1,t2) is a minimal trip (Definition 6).
// Shortest transitions are the elementary units of propagation: if every
// shortest transition of the link stream survives aggregation, every minimal
// trip does, and the propagation possibilities are unchanged.
//
// A shortest transition is LOST at aggregation period Delta exactly when its
// two hops fall into the same window: the aggregated series then no longer
// knows whether (a,b) occurred before (b,c).
//
// The set is read off the stream's Delta = 1 series, whose window k holds
// exactly the events at t = k - 1; it stores the translated timestamps.
#pragma once

#include <cstdint>
#include <vector>

#include "linkstream/link_stream.hpp"
#include "util/types.hpp"

namespace natscale {

/// All shortest transitions of a stream, reduced to the two hop timestamps
/// (t1 = departure, t2 = arrival); that is all the loss measure needs.
class ShortestTransitionSet {
public:
    /// Scans the stream's Delta = 1 series (O(nM) backward sweep) and keeps
    /// every minimal trip with exactly two hops.  For a minimal trip, the
    /// realizing path departs exactly at `dep` and arrives exactly at `arr`,
    /// so the two hop times are the trip's endpoints.
    explicit ShortestTransitionSet(const LinkStream& stream);

    std::size_t size() const noexcept { return hop_times_.size(); }
    bool empty() const noexcept { return hop_times_.empty(); }

    /// Fraction of shortest transitions whose two hops land in the same
    /// aggregation window of length `delta` — the proportion of shortest
    /// transitions lost (y-axis of Fig. 8 left).  Precondition: delta >= 1.
    double lost_fraction(Time delta) const;

    /// The (t1, t2) pairs, for tests.
    const std::vector<std::pair<Time, Time>>& hop_times() const noexcept { return hop_times_; }

private:
    std::vector<std::pair<Time, Time>> hop_times_;
};

}  // namespace natscale

// Interval link streams: dynamic networks whose links LAST over a time
// interval instead of being punctual events — phone calls, physical
// proximity, RFID contacts (paper references [5, 40, 44]).
//
// The paper's occupancy method is defined for punctual links only and names
// the extension to lasting links as its first perspective (Section 9).  This
// module provides the principled bridge the related work [12, 3] studies in
// the opposite direction: an interval stream is *oversampled* into a
// punctual link stream by emitting one event per sampling period while the
// link is active — exactly how sensor deployments measure contact networks
// in the first place.  The occupancy method then applies unchanged to the
// oversampled stream, with the sampling period playing the role of the
// timestamp resolution.
#pragma once

#include <compare>
#include <vector>

#include "linkstream/link_stream.hpp"
#include "util/types.hpp"

namespace natscale {

/// A lasting link: u and v are continuously connected during [begin, end).
struct IntervalEvent {
    NodeId u = 0;
    NodeId v = 0;
    Time begin = 0;
    Time end = 0;  // exclusive

    friend constexpr std::strong_ordering operator<=>(const IntervalEvent& a,
                                                      const IntervalEvent& b) {
        if (auto c = a.begin <=> b.begin; c != 0) return c;
        if (auto c = a.end <=> b.end; c != 0) return c;
        if (auto c = a.u <=> b.u; c != 0) return c;
        return a.v <=> b.v;
    }
    friend constexpr bool operator==(const IntervalEvent&, const IntervalEvent&) = default;
};

/// A collection of lasting links over [0, T).
class IntervalStream {
public:
    /// Preconditions: endpoints < num_nodes, u != v, 0 <= begin < end <=
    /// period_end for every interval.
    IntervalStream(std::vector<IntervalEvent> intervals, NodeId num_nodes, Time period_end,
                   bool directed = false);

    std::span<const IntervalEvent> intervals() const noexcept { return intervals_; }
    NodeId num_nodes() const noexcept { return num_nodes_; }
    Time period_end() const noexcept { return period_end_; }
    bool directed() const noexcept { return directed_; }
    std::size_t num_intervals() const noexcept { return intervals_.size(); }
    bool empty() const noexcept { return intervals_.empty(); }

    /// Total connected time summed over links, in ticks.
    Time total_active_time() const noexcept;

private:
    std::vector<IntervalEvent> intervals_;  // sorted
    NodeId num_nodes_ = 0;
    Time period_end_ = 0;
    bool directed_ = false;
};

struct OversampleOptions {
    /// One punctual event is emitted at every multiple of `sampling_period`
    /// that falls inside an active interval (the sensor's polling clock).
    Time sampling_period = 1;
    /// Phase of the sampling clock in [0, sampling_period).
    Time phase = 0;
};

/// Converts an interval stream to a punctual link stream by periodic
/// sampling.  Duplicate samples from overlapping intervals of the same pair
/// are collapsed.  The result's period_end equals the interval stream's.
LinkStream oversample(const IntervalStream& stream, const OversampleOptions& options);

}  // namespace natscale

// Occupancy-rate distributions of aggregated graph series (paper Section 4).
//
// For a given aggregation period Delta, the occupancy distribution collects
// occ(P) = hops(P) / time(P) over all minimal trips P of the aggregated
// series G_Delta (all ordered node pairs, all time intervals).  Its shape as
// Delta varies — stretching from a spike near 0 to a spike at 1 through a
// maximally uniform intermediate state — is the phenomenon the occupancy
// method exploits.
//
// occ(P) depends on P only through its (hops, duration) pair, so the
// histogram of a Delta — bins and both exact moments — is a function of the
// multiset of those pairs.  Every scan that builds one (occupancy_histogram,
// DeltaSweepEngine's periods, the online engine's sync and refresh)
// therefore tallies trips by pair in an OccupancyTally and adds each
// distinct pair to the Histogram01 once, when the scan ends.
#pragma once

#include <cstdint>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "linkstream/link_stream.hpp"
#include "stats/histogram01.hpp"
#include "temporal/minimal_trip.hpp"
#include "util/contracts.hpp"
#include "util/types.hpp"

namespace natscale {

/// The per-scan trip sink behind every occupancy histogram: counts the
/// minimal trips of a graph series by (duration, hops), and flush() adds
/// each counted pair to `histogram` once, as add(hops / duration, count) —
/// the double series_occupancy computes.  Histogram01 bins are integers and
/// its moments exact, order-independent sums, so the flushed histogram is
/// bit-identical to adding series_occupancy(trip) once per trip.
///
/// Trips of up to kMaxTableDuration windows are counted in a dense
/// triangular table, cell (d, h) with 1 <= h <= d, that grows on demand to
/// the longest duration counted.  A cell's first count also records the
/// pair, so a flush walks only the cells it counted, not the table: the
/// online engine builds one tally per period per sync and per refresh, and
/// most of those count a few hundred pairs.  Longer trips go straight to
/// Histogram01::add.  The destructor flushes too, so a tally that ends
/// with its scan leaves the histogram complete.  Non-copyable: no copy can
/// count a trip twice.
class OccupancyTally {
public:
    /// Longest trip, in windows, counted in the table (about 257 KiB at
    /// full size).  A dense table because a hash map of distinct pairs is
    /// several times slower than per-trip adds when nearly every pair is
    /// distinct (enron at Delta = 1); 256 windows because a 64-window table
    /// left a third of the gain on a trip-heavy uniform stream
    /// (uniform:n=400,links=5,T=20000 at Delta = 1) unclaimed.
    static constexpr Time kMaxTableDuration = 256;

    explicit OccupancyTally(Histogram01& histogram) noexcept : histogram_(&histogram) {}
    OccupancyTally(const OccupancyTally&) = delete;
    OccupancyTally& operator=(const OccupancyTally&) = delete;
    ~OccupancyTally() { flush(); }

    /// Counts one trip.  Preconditions (series_occupancy's): duration >= 1
    /// and 1 <= hops <= duration.
    void operator()(const MinimalTrip& trip) {
        const Time duration = series_duration(trip);
        NATSCALE_EXPECTS(duration >= 1 && trip.hops >= 1);
        NATSCALE_EXPECTS(trip.hops <= duration);
        if (duration > kMaxTableDuration) {
            histogram_->add(static_cast<double>(trip.hops) / static_cast<double>(duration));
            return;
        }
        if (duration > rows_) grow(duration);
        if (cells_[cell(duration, trip.hops)]++ == 0) {
            counted_.push_back(static_cast<std::uint32_t>((duration << 16) | trip.hops));
        }
    }

    /// Adds every counted pair to the histogram and zeroes its cell, so a
    /// second flush adds nothing.
    void flush() noexcept;

private:
    /// Row d starts at cell d(d-1)/2 and holds hops 1..d.
    static std::size_t cell(Time duration, Hops hops) noexcept {
        const auto d = static_cast<std::size_t>(duration);
        return d * (d - 1) / 2 + static_cast<std::size_t>(hops) - 1;
    }
    void grow(Time duration);

    Histogram01* histogram_;
    Time rows_ = 0;  // the table holds rows 1..rows_
    std::vector<std::uint64_t> cells_;
    // (duration << 16) | hops of each nonzero cell, in first-count order;
    // both are at most kMaxTableDuration.
    std::vector<std::uint32_t> counted_;
};

/// Streaming histogram of the occupancy rates of all minimal trips of the
/// series (histogram error O(1/num_bins); see Histogram01), from one
/// sequential scan on the backend select_backend picks from n and event
/// density (temporal/reachability_backend.hpp).
Histogram01 occupancy_histogram(const GraphSeries& series,
                                std::size_t num_bins = Histogram01::kDefaultBins);

/// Aggregates the stream at `delta` and computes the occupancy histogram.
/// Aggregation is window-sequential (linkstream/aggregation), so an
/// mmap-backed stream (open_natbin) is consumed out-of-core: peak residency
/// is the per-window working set, and the histogram is bit-identical to the
/// in-memory path.
Histogram01 occupancy_histogram(const LinkStream& stream, Time delta,
                                std::size_t num_bins = Histogram01::kDefaultBins);

/// Count of minimal trips of the aggregated series.
std::uint64_t count_minimal_trips(const GraphSeries& series);

}  // namespace natscale

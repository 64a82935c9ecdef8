// Accumulation of the mean temporal distances of Fig. 2 (bottom panels).
//
// For an aggregated series, the paper plots the mean of d_time(u, v, t) and
// d_hops(u, v, t) over all ordered pairs (u, v), u != v, and ALL start
// windows t in 1..K with finite distance.  Enumerating the (u, v, t) triples
// directly is Theta(n^2 K), infeasible at fine aggregation periods
// (K ~ 4*10^6 for Irvine at 1 s).  Instead, this accumulator exploits the
// fact that, for a fixed pair, the earliest-arrival value changes only at
// the O(activity) windows where the source has links: between two changes
// the arrival a is constant, so the partial sum of d_time = a - t + 1 over
// the stretch is an arithmetic series, added in O(1).
//
// The accumulator is driven by TemporalReachability during its backward
// sweep (series mode only): record_change at every value change, then
// close_pair for every pair still finite when the sweep ends.
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace natscale {

struct DistanceStats {
    /// Sum and count of finite d_time values, in windows.
    double dtime_sum = 0.0;
    /// Sum of the matching d_hops values.
    double dhops_sum = 0.0;
    /// Number of (u, v, t) triples with finite distance.
    double finite_count = 0.0;

    double mean_dtime_windows() const { return finite_count == 0 ? 0.0 : dtime_sum / finite_count; }
    double mean_dhops() const { return finite_count == 0 ? 0.0 : dhops_sum / finite_count; }

    /// d_abstime = Delta * d_time (Section 2), in ticks.
    double mean_dabstime_ticks(Time delta) const {
        return mean_dtime_windows() * static_cast<double>(delta);
    }
};

class DistanceAccumulator {
public:
    /// Prepares for a series on `num_nodes` nodes and `num_windows` windows.
    void begin(NodeId num_nodes, WindowIndex num_windows);

    /// The value (old_arr, old_hops) of pair (u, v) — valid for start windows
    /// [k+1 .. previous change] — is being replaced at window k.
    void record_change(NodeId u, NodeId v, Time k, Time old_arr, Hops old_hops);

    /// Closes the open stretch of pair (u, v) down to window 1: (arr, hops)
    /// is its final value in the backward sweep.  The sweep calls it once
    /// per finite pair, in row-major (u, then v) order, so the sums always
    /// add up in the same order.  Preconditions: u != v; arr finite.
    void close_pair(NodeId u, NodeId v, Time arr, Hops hops);

    const DistanceStats& stats() const { return stats_; }

private:
    NodeId n_ = 0;
    WindowIndex num_windows_ = 0;
    std::vector<Time> last_change_;  // per ordered pair, row-major
    DistanceStats stats_;
};

}  // namespace natscale

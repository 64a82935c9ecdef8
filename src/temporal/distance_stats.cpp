#include "temporal/distance_stats.hpp"

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace natscale {

void DistanceAccumulator::begin(NodeId num_nodes, WindowIndex num_windows) {
    NATSCALE_EXPECTS(num_windows >= 1);
    n_ = num_nodes;
    num_windows_ = num_windows;
    last_change_.assign(static_cast<std::size_t>(n_) * n_, num_windows);
    stats_ = DistanceStats{};
}

void DistanceAccumulator::record_change(NodeId u, NodeId v, Time k, Time old_arr,
                                        Hops old_hops) {
    const std::size_t idx = static_cast<std::size_t>(u) * n_ + v;
    if (old_arr != kInfiniteTime) {
        // Old value was valid for start windows k+1 .. last_change_[idx].
        const Time lo = k + 1;
        const Time hi = last_change_[idx];
        if (hi >= lo) {
            // d_time(t) = old_arr - t + 1 for t in [lo, hi]:
            // values run from old_arr - hi + 1 up to old_arr - lo + 1.
            stats_.dtime_sum += arithmetic_series(old_arr - hi + 1, old_arr - lo + 1);
            stats_.dhops_sum +=
                static_cast<double>(old_hops) * static_cast<double>(hi - lo + 1);
            stats_.finite_count += static_cast<double>(hi - lo + 1);
        }
    }
    last_change_[idx] = k;
}

void DistanceAccumulator::close_pair(NodeId u, NodeId v, Time arr, Hops hops) {
    NATSCALE_EXPECTS(u != v && arr != kInfiniteTime);
    // The final value holds for start windows 1 .. last_change_.
    const Time lo = 1;
    const Time hi = last_change_[static_cast<std::size_t>(u) * n_ + v];
    if (hi < lo) return;
    stats_.dtime_sum += arithmetic_series(arr - hi + 1, arr - lo + 1);
    stats_.dhops_sum += static_cast<double>(hops) * static_cast<double>(hi - lo + 1);
    stats_.finite_count += static_cast<double>(hi - lo + 1);
}

}  // namespace natscale

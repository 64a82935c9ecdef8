// Grids of aggregation periods for Delta sweeps.
//
// The occupancy method evaluates the occupancy distribution across the whole
// range of aggregation periods, from the timestamp resolution (1 tick) to
// the full period of study T.  A geometric grid covers that range (4-7
// decades for the paper's datasets) with a bounded number of O(nM) sweeps;
// the saturation-scale search then refines linearly around the optimum.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace natscale {

/// Largest geometric grid a command line or a daemon registration may ask
/// for.  Each point costs one sweep (online, one engine state); a larger
/// count is refused where it is read, instead of failing in allocation.
inline constexpr std::size_t kMaxGridPoints = 512;

/// Geometric grid of `count` distinct integer periods covering [lo, hi].
/// Consecutive duplicates arising from rounding are removed, so the result
/// may hold fewer than `count` values.  Preconditions: 1 <= lo <= hi,
/// count >= 2.
std::vector<Time> geometric_delta_grid(Time lo, Time hi, std::size_t count);

/// Linear grid of up to `count` distinct integer periods covering [lo, hi].
std::vector<Time> linear_delta_grid(Time lo, Time hi, std::size_t count);

}  // namespace natscale

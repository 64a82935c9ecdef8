// Occupancy-rate distributions of aggregated graph series (paper Section 4).
//
// For a given aggregation period Delta, the occupancy distribution collects
// occ(P) = hops(P) / time(P) over all minimal trips P of the aggregated
// series G_Delta (all ordered node pairs, all time intervals).  Its shape as
// Delta varies — stretching from a spike near 0 to a spike at 1 through a
// maximally uniform intermediate state — is the phenomenon the occupancy
// method exploits.
#pragma once

#include <cstdint>

#include "linkstream/graph_series.hpp"
#include "linkstream/link_stream.hpp"
#include "stats/empirical_distribution.hpp"
#include "stats/histogram01.hpp"
#include "util/types.hpp"

namespace natscale {

/// Streaming histogram of the occupancy rates of all minimal trips of the
/// series (histogram error O(1/num_bins); see Histogram01), from one
/// sequential scan on the backend select_backend picks from n and event
/// density (temporal/reachability_backend.hpp).  To scan one period on
/// several threads, evaluate a one-point grid with DeltaSweepEngine, which
/// splits a grid narrower than its pool into column shards.
Histogram01 occupancy_histogram(const GraphSeries& series,
                                std::size_t num_bins = Histogram01::kDefaultBins);

/// Aggregates the stream at `delta` and computes the occupancy histogram.
/// Aggregation is window-sequential (linkstream/aggregation), so an
/// mmap-backed stream (open_natbin) is consumed out-of-core: peak residency
/// is the per-window working set, and the histogram is bit-identical to the
/// in-memory path.
Histogram01 occupancy_histogram(const LinkStream& stream, Time delta,
                                std::size_t num_bins = Histogram01::kDefaultBins);

/// Exact sample-storing variant for small series and for the tests.
EmpiricalDistribution occupancy_distribution(const GraphSeries& series);

/// Count of minimal trips of the aggregated series.
std::uint64_t count_minimal_trips(const GraphSeries& series);

}  // namespace natscale

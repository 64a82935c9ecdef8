// Validation measures of the aggregation loss (paper Section 8, Fig. 8).
//
// Two quantifications of how much propagation structure an aggregation
// period destroys:
//   * the proportion of shortest transitions of the original link stream
//     whose two hops fall into one window (pessimistic: counts every loss),
//   * the mean elongation factor of the minimal trips of the aggregated
//     series relative to the fastest original-stream trip available in the
//     same absolute time window (optimistic: lost transitions replaced by
//     slightly slower ones barely register).
// Together they bracket the damage; both jump around the saturation scale.
#pragma once

#include <cstdint>
#include <vector>

#include "linkstream/link_stream.hpp"
#include "natscale/sweep_config.hpp"
#include "temporal/reachability.hpp"
#include "temporal/transitions.hpp"
#include "util/types.hpp"

namespace natscale {

struct LostTransitionPoint {
    Time delta = 0;
    double lost_fraction = 0.0;  // in [0, 1]
};

/// Fig. 8 left: proportion of shortest transitions lost per period.  The
/// transition set is computed once (one stream sweep); each period then
/// costs O(#transitions).
std::vector<LostTransitionPoint> lost_transitions_curve(const LinkStream& stream,
                                                        const std::vector<Time>& deltas);
std::vector<LostTransitionPoint> lost_transitions_curve(const ShortestTransitionSet& set,
                                                        const std::vector<Time>& deltas);

struct ElongationPoint {
    Time delta = 0;
    double mean_elongation = 0.0;   // mean e_P over measured minimal trips
    std::uint64_t measured_trips = 0;  // trips with dep != arr among sampled pairs
};

/// Fig. 8 right: mean elongation factor e_P = (t_v - t_u + 1) * Delta /
/// time_L(P) (Definition 8) of the minimal trips of G_Delta, per period.
/// Trips with t_u == t_v are skipped, as in the paper (their elongation is
/// undefined).  Deterministic pair sampling keeps memory bounded on large
/// streams while leaving the mean unbiased.  The per-period scans run
/// through scan_periods (temporal/scan_periods), the fan-out
/// DeltaSweepEngine::evaluate uses too: one task per period.  Every period
/// is counted and traced under `sweep.*` like a search period.
std::vector<ElongationPoint> elongation_curve(const LinkStream& stream,
                                              const std::vector<Time>& deltas,
                                              const SweepConfig& options = {});

}  // namespace natscale

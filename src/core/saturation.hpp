// The occupancy method (paper Sections 4 and 7): automatic, parameter-free
// determination of the saturation scale gamma of a link stream.
//
// gamma is the aggregation period whose occupancy-rate distribution is
// maximally spread over [0, 1] — by default the period maximizing the M-K
// proximity with the uniform density.  Aggregating with Delta <= gamma
// mostly preserves the propagation properties of the stream; beyond gamma
// they are demonstrably altered (Section 8 quantifies the alteration).
//
// The search evaluates a geometric grid over [resolution, T] and then
// refines linearly around the running optimum; each evaluation is one O(nM)
// backward sweep.  All five uniformity metrics of Section 7 are recorded at
// every evaluated period so the metric-comparison figure (Fig. 7) costs no
// extra sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/delta_sweep.hpp"
#include "linkstream/link_stream.hpp"
#include "natscale/sweep_config.hpp"
#include "stats/histogram01.hpp"
#include "stats/uniformity.hpp"
#include "util/types.hpp"

namespace natscale {

/// Sweep options matching a SweepConfig (same bins / slots / threads).
DeltaSweepOptions sweep_options_of(const SweepConfig& options);

struct SaturationResult {
    /// The saturation scale gamma, in ticks.
    Time gamma = 0;

    /// Metric used for the selection.
    UniformityMetric metric = UniformityMetric::mk_proximity;

    /// Every evaluated period, sorted by delta (the Fig. 3/5 curve).
    std::vector<DeltaPoint> curve;

    /// Scores at gamma.
    DeltaPoint at_gamma;

    /// Occupancy histogram of G_gamma (the "maximally stretched" ICD of
    /// Fig. 3 left, green squares).
    Histogram01 gamma_histogram{Histogram01::kDefaultBins};

    /// argmax over the evaluated curve for any metric, in ticks (Fig. 7:
    /// what each selection method would return).  Returns 0 on empty curve.
    Time gamma_for(UniformityMetric metric) const;
};

/// Runs the occupancy method.  The whole Delta grid of each round is
/// evaluated in one batched, parallel DeltaSweepEngine pass; the result is
/// identical to the sequential per-period evaluation.  mmap-backed streams
/// (linkstream/binary_io's open_natbin) are swept out-of-core — the chunked
/// aggregation pipeline releases consumed pages behind its scan — and
/// gamma, the curve, and the gamma histogram stay bit-identical to the
/// in-memory path for every thread count.
/// Preconditions: stream non-empty.
SaturationResult find_saturation_scale(const LinkStream& stream,
                                       const SweepConfig& options = {});

/// Batch evaluator of one grid round: returns a DeltaPoint per period and,
/// when the pointer is non-null, the occupancy histogram each point was
/// scored from.  DeltaSweepEngine::evaluate has exactly this shape and is
/// what find_saturation_scale plugs in; instrumented callers (a timing
/// harness, for instance) wrap their own per-stage evaluator around the
/// same search loop.
using GridEvaluator = std::function<std::vector<DeltaPoint>(
    std::span<const Time>, std::vector<Histogram01>*)>;

/// The occupancy-method search loop (coarse geometric grid + linear
/// refinement around the running optimum) over an arbitrary evaluator.
/// Every engine that can evaluate a grid batch gets the identical search —
/// and therefore the identical gamma — through this one definition;
/// find_saturation_scale is exactly this with a DeltaSweepEngine plugged
/// in.  Preconditions: 1 <= lo <= hi, coarse_points >= 2.
SaturationResult find_saturation_scale_with(const GridEvaluator& evaluate, Time lo,
                                            Time hi, const SweepConfig& options);

}  // namespace natscale

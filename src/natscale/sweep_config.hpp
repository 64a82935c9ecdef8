// SweepConfig: the one configuration surface of the public API.
//
// One struct carries the full knob set of the scale search, the validation
// curves and the execution layer (threads); the facade (natscale/api.hpp),
// the CLI tools, `watch` mode and the natscaled daemon all share it.  The
// batched grid engine's DeltaSweepOptions is the execution subset
// (sweep_options_of).  select_backend (temporal/reachability_backend.hpp)
// picks the reachability backend of each scan.
//
// One struct is enough because the knobs never conflict: the saturation
// fields are simply unused by the elongation curve and vice versa, and the
// execution fields mean the same thing everywhere.
#pragma once

#include <cstdint>

#include "stats/histogram01.hpp"
#include "stats/uniformity.hpp"
#include "util/types.hpp"

namespace natscale {

/// Every knob of the occupancy-method pipeline, in one place.  Entry points
/// read the subset that concerns them and ignore the rest, so one config
/// can drive the whole pipeline (search + validation + reporting) without
/// translation.  All execution knobs preserve bit-identical results; only
/// wall-clock and memory change.
struct SweepConfig {
    // --- scale selection (find_saturation_scale) ---------------------------

    /// Metric whose maximum defines gamma (paper default: M-K proximity).
    UniformityMetric metric = UniformityMetric::mk_proximity;

    /// Points of the initial geometric grid over [min_delta, max_delta].
    std::size_t coarse_points = 48;

    /// Linear refinement rounds around the running optimum, and points per
    /// round.  0 rounds = coarse grid only — the mode whose output the
    /// online engine (and hence the daemon) reproduces bit for bit.
    std::size_t refine_rounds = 2;
    std::size_t refine_points = 12;

    /// Occupancy histogram resolution.
    std::size_t histogram_bins = Histogram01::kDefaultBins;

    /// Slot count for the Shannon-entropy metric (Section 7 uses 10).
    std::size_t shannon_slots = 10;

    /// Sweep range; 0 means "use the natural bound" (1 tick / T).
    Time min_delta = 0;
    Time max_delta = 0;

    // --- execution (every entry point) -------------------------------------

    /// Threads for the sweep; 0 = hardware concurrency, 1 = fully
    /// sequential.  Grids narrower than the pool split their dense scans
    /// by destination column (temporal/column_shards), so every thread has
    /// work.  Results are bit-identical for every value.
    std::size_t num_threads = 0;

    // --- validation (elongation_curve) --------------------------------------

    /// Upper bound on stored stream trips; the pair-sampling divisor is
    /// chosen automatically as ceil(total/limit).  0 disables sampling.
    std::uint64_t max_stored_trips = 4'000'000;
};

}  // namespace natscale

// Batched evaluation of a whole grid of aggregation periods (the hot path
// of the occupancy method).
//
// The saturation-scale search evaluates the occupancy distribution over
// dozens of aggregation periods Delta of the SAME stream.  DeltaSweepEngine
// runs that grid:
//
//   * each period is aggregated by the chunked window-sequential pipeline
//     of linkstream/aggregation, straight off the stream's shared
//     time-sorted event buffer (in RAM or an mmap'd .natbin trace); peak
//     residency is the per-window working set, not the trace;
//   * the per-Delta reachability scans fan out over a util/thread_pool
//     through scan_periods (temporal/scan_periods), one task per period
//     (one reusable ReachabilityEngine per worker); each scan runs on the
//     dense or sparse kernel that select_backend
//     (temporal/reachability_backend) picks for that period's series;
//   * every period is scored by score_delta_point once the fan-out is done.
//
// Results are deterministic and thread-count independent: every period is
// scanned by exactly one task writing to its own histogram, and the
// per-period computation is bit-identical to the sequential single-period
// path (same snapshot edge order, same trip emission order, same
// floating-point accumulation order).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "linkstream/link_stream.hpp"
#include "stats/histogram01.hpp"
#include "stats/uniformity.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace natscale {

/// One evaluated aggregation period.
struct DeltaPoint {
    Time delta = 0;                 // ticks
    UniformityScores scores;        // all five Section 7 metrics
    std::uint64_t num_trips = 0;    // minimal trips of G_Delta
    double occupancy_mean = 0.0;
};

/// Scores one evaluated period from its occupancy histogram: all five
/// uniformity metrics, trip count and mean.  This is THE per-period
/// evaluation — evaluate() applies it to every grid point, and the online
/// engine (online/incremental_sweep) applies it to incrementally maintained
/// histograms, so batch and online points are computed by the same code.
DeltaPoint score_delta_point(Time delta, const Histogram01& histogram,
                             std::size_t shannon_slots);

/// Index of the point with the highest `metric` score in a delta-sorted
/// list, the first maximum winning ties; 0 for an empty list.  This is THE
/// gamma argmax: the batch search (core/saturation) and the online engine
/// both pick gamma with it, so they agree on every tie.
std::size_t argmax_point(std::span<const DeltaPoint> points, UniformityMetric metric);

struct DeltaSweepOptions {
    /// Occupancy histogram resolution.
    std::size_t histogram_bins = Histogram01::kDefaultBins;

    /// Slot count for the Shannon-entropy metric (Section 7 uses 10).
    std::size_t shannon_slots = 10;

    /// Threads for the sweep; 0 = hardware concurrency, 1 = fully
    /// sequential (no pool threads are spawned).  The one concurrency (and
    /// engine-memory) cap: the pool runs one task per period, so a grid
    /// narrower than the pool leaves threads idle.  Results are
    /// bit-identical for every value: one task scans each period into its
    /// own histogram.
    std::size_t num_threads = 0;
};

class DeltaSweepEngine {
public:
    /// The stream must outlive the engine.
    explicit DeltaSweepEngine(const LinkStream& stream, DeltaSweepOptions options = {});

    const LinkStream& stream() const noexcept { return *stream_; }
    const DeltaSweepOptions& options() const noexcept { return options_; }

    /// Evaluates every period of `grid` (occupancy histogram + all five
    /// uniformity metrics), in grid order.  When `histograms_out` is
    /// non-null it receives the per-period occupancy histograms, aligned
    /// with the returned points.  The scans run through scan_periods
    /// (temporal/scan_periods), which counts and traces every period under
    /// `sweep.*`; the result is identical for any thread count.
    /// Preconditions: every delta >= 1.
    std::vector<DeltaPoint> evaluate(std::span<const Time> grid,
                                     std::vector<Histogram01>* histograms_out = nullptr);

    /// Aggregation at one period: aggregate(stream(), delta) of
    /// linkstream/aggregation.  Thread-safe (const).
    /// Preconditions: delta >= 1.
    GraphSeries aggregate(Time delta) const;

private:
    ThreadPool& pool();

    const LinkStream* stream_;
    DeltaSweepOptions options_;

    /// Created on first evaluate(); aggregate()-only users never pay for
    /// pool threads.
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace natscale

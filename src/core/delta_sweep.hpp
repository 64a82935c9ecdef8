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
//   * the independent per-Delta reachability scans fan out over a
//     util/thread_pool, with one reusable ReachabilityEngine per worker so
//     the sweep state is allocated once per thread, not once per period;
//     each scan runs on the dense or sparse kernel that select_backend
//     (temporal/reachability_backend) picks for that period's series;
//   * a grid narrower than the pool (a late refinement round can hold a
//     single period) instead runs as (Delta, column shard) tasks
//     (temporal/sharded_scan), so every thread has a scan to work on.
//
// Results are deterministic and thread-count independent: every period (or
// shard) is evaluated by exactly one task writing to its own output slot,
// shard partials merge in fixed ascending order into split-invariant
// accumulators, and the per-period computation is bit-identical to the
// legacy single-period path (same snapshot edge order, same trip emission
// order, same floating-point accumulation order).
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

struct DeltaSweepOptions {
    /// Occupancy histogram resolution.
    std::size_t histogram_bins = Histogram01::kDefaultBins;

    /// Slot count for the Shannon-entropy metric (Section 7 uses 10).
    std::size_t shannon_slots = 10;

    /// Threads for the sweep; 0 = hardware concurrency, 1 = fully
    /// sequential (no pool threads are spawned).  The one concurrency (and
    /// engine-memory) cap: a grid at least as wide as the pool runs one
    /// task per period, a narrower one splits its dense scans into column
    /// shards (temporal/column_shards) over the same pool.  Results are
    /// bit-identical for every value: the shard structure depends on n
    /// alone, partials merge in fixed ascending order, and the histogram
    /// accumulators are split-invariant.
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
    /// with the returned points.  Periods are independent, so they run in
    /// parallel — split into column shards when the grid is narrower than
    /// the pool; the result is identical for any thread count.  Each
    /// period adds one to `sweep.dense_deltas` or `sweep.sparse_deltas`,
    /// after the backend its scan ran on.
    /// Preconditions: every delta >= 1.
    std::vector<DeltaPoint> evaluate(std::span<const Time> grid,
                                     std::vector<Histogram01>* histograms_out = nullptr);

    /// Aggregation at one period: aggregate(stream(), delta) of
    /// linkstream/aggregation.  Thread-safe (const).
    /// Preconditions: delta >= 1.
    GraphSeries aggregate(Time delta) const;

private:
    ThreadPool& pool();

    /// The narrow-grid path of evaluate(): dense per-Delta scans split into
    /// column-shard tasks, sparse ones kept whole, all fanned out together.
    std::vector<DeltaPoint> evaluate_sharded(std::span<const Time> grid,
                                             std::vector<Histogram01>* histograms_out,
                                             ThreadPool& workers);

    const LinkStream* stream_;
    DeltaSweepOptions options_;

    /// Created on first evaluate(); aggregate()-only users never pay for
    /// pool threads.
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace natscale

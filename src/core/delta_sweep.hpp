// Batched evaluation of a whole grid of aggregation periods (the hot path
// of the occupancy method).
//
// The saturation-scale search evaluates the occupancy distribution over
// dozens of aggregation periods Delta of the SAME stream.  Evaluating each
// period independently (linkstream/aggregation + one reachability scan)
// re-does per-window edge sorting and deduplication from scratch every
// time; DeltaSweepEngine shares that work across the grid:
//
//   * the time-sorted event buffer is shared (it lives behind the
//     LinkStream's EventSource — in RAM or an mmap'd .natbin trace), and
//     one extra (u, v, t)-ordered index over it is computed once at
//     construction (optionally spilled to a mmap'd temp file, see
//     IndexSpillMode).  Aggregating at any Delta is then a
//     single O(E) pass: window boundaries come from the time order,
//     per-window edge lists come out of the pair order already sorted and
//     deduplicated — no per-window sort, no per-call dedup.  For
//     mmap-backed sources the engine instead defaults to the chunked
//     window-sequential pipeline of linkstream/aggregation, whose peak
//     residency is the per-window working set, not the trace;
//   * the independent per-Delta reachability scans fan out over a
//     util/thread_pool, with one reusable TemporalReachability engine per
//     worker so the O(n^2) sweep state is allocated once per thread, not
//     once per period.
//
// Results are deterministic and thread-count independent: every period is
// evaluated by exactly one task writing to its own output slot, and the
// per-period computation is bit-identical to the legacy single-period path
// (same snapshot edge order, same trip emission order, same floating-point
// accumulation order).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "linkstream/link_stream.hpp"
#include "natscale/sweep_config.hpp"
#include "stats/histogram01.hpp"
#include "stats/uniformity.hpp"
#include "temporal/reachability.hpp"
#include "util/mmap_file.hpp"
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

    /// Threads for the per-Delta fan-out; 0 = hardware concurrency, 1 =
    /// fully sequential (no pool threads are spawned).
    std::size_t num_threads = 0;

    /// Intra-scan column parallelism (temporal/column_shards): any value
    /// other than 1 (the default) lets evaluate() decompose the dense scans
    /// of a narrow Delta grid — one narrower than the pool, which
    /// whole-period tasks alone cannot keep busy — into per-column-shard
    /// tasks, fanned out over at most scan_threads workers (0 = hardware
    /// concurrency) of the SAME num_threads-wide pool.  num_threads stays
    /// THE overall concurrency (and engine-memory) cap, so with
    /// num_threads == 1 this option is inert.  Results are bit-identical
    /// for every (num_threads, scan_threads) combination: the shard
    /// structure depends on n alone, partials merge in fixed ascending
    /// order, and the histogram accumulators are split-invariant.
    std::size_t scan_threads = 1;

    /// Reachability backend of the per-Delta scans.  `automatic` picks dense
    /// or sparse from n and event density (temporal/reachability_backend);
    /// the evaluated points are bit-identical either way, but the sparse
    /// backend bounds per-worker memory by the reachable-pair count instead
    /// of threads x n^2 x 12 B.
    ReachabilityBackend backend = ReachabilityBackend::automatic;

    /// How aggregate() materializes each snapshot list (see SweepAggregation
    /// in natscale/sweep_config.hpp).  All three modes produce bit-identical
    /// GraphSeries (hence bit-identical evaluated points).
    ///
    /// Note that pair-index aggregate() allocates a transient 4 B/event
    /// slot array per call (per worker under evaluate()); on traces where
    /// that matters, prefer chunked — which `automatic` picks for mmap
    /// sources anyway.
    SweepAggregation aggregation = SweepAggregation::automatic;

    /// Where the pair-order index lives (pair_index mode only); see
    /// IndexSpillMode in natscale/sweep_config.hpp.
    IndexSpillMode index_spill = IndexSpillMode::automatic;
};

class DeltaSweepEngine {
public:
    /// Indexes `stream` for repeated aggregation: one O(E log E) pair-order
    /// sort, amortized over every subsequent evaluate()/aggregate() call.
    /// In chunked mode (the automatic choice for mmap-backed streams) no
    /// index is built at all and each aggregate() is one sequential pass.
    /// The stream must outlive the engine.
    /// Preconditions: pair_index mode supports at most 2^32 - 1 events;
    /// chunked mode has no such limit.
    explicit DeltaSweepEngine(const LinkStream& stream, DeltaSweepOptions options = {});

    const LinkStream& stream() const noexcept { return *stream_; }
    const DeltaSweepOptions& options() const noexcept { return options_; }

    /// Evaluates every period of `grid` (occupancy histogram + all five
    /// uniformity metrics), in grid order.  When `histograms_out` is
    /// non-null it receives the per-period occupancy histograms, aligned
    /// with the returned points.  Periods are independent, so they run in
    /// parallel; the result is identical for any thread count.
    /// Preconditions: every delta >= 1.
    std::vector<DeltaPoint> evaluate(std::span<const Time> grid,
                                     std::vector<Histogram01>* histograms_out = nullptr);

    /// Shared-buffer aggregation at one period: same GraphSeries as
    /// linkstream/aggregation's aggregate(stream, delta), built in O(E)
    /// from the precomputed pair order.  Thread-safe (const).
    /// Preconditions: delta >= 1.
    GraphSeries aggregate(Time delta) const;

    /// True when aggregate() goes through the pair-order index (resolved
    /// from options().aggregation and the stream's storage at
    /// construction).
    bool uses_pair_index() const noexcept { return use_pair_index_; }

    /// True when the pair-order index lives in a spilled temp-file mapping
    /// rather than RAM.
    bool index_spilled() const noexcept { return index_spill_ != nullptr; }

private:
    ThreadPool& pool();
    void build_pair_index();

    /// The narrow-grid path of evaluate(): dense per-Delta scans split into
    /// column-shard tasks, sparse ones kept whole, all fanned out together.
    std::vector<DeltaPoint> evaluate_sharded(std::span<const Time> grid,
                                             std::vector<Histogram01>* histograms_out,
                                             ThreadPool& workers);

    const LinkStream* stream_;
    DeltaSweepOptions options_;
    bool use_pair_index_ = true;

    /// Event indices sorted by (u, v, t) — the stable pair-order view of
    /// the shared time-sorted event buffer.  Backed by either the in-RAM
    /// vector or the spilled mapping; empty in chunked mode.
    std::span<const std::uint32_t> pair_order_;
    std::vector<std::uint32_t> pair_order_storage_;
    std::unique_ptr<MappedFile> index_spill_;

    /// Created on first evaluate(); aggregate()-only users never pay for
    /// pool threads.
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace natscale

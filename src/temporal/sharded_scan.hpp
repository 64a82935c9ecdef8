// scan_periods: the one function that scans a list of aggregation periods in
// parallel, for DeltaSweepEngine::evaluate (occupancy histograms) and
// elongation_curve (paper Section 8).
//
//   * a wide list (at least as many periods as the pool has threads) runs
//     one task per period — aggregation inside the task, one reusable
//     ReachabilityEngine per worker;
//   * a narrow list (e.g. a late refinement round of the saturation search)
//     aggregates every series up front and splits each dense-resolved scan
//     into column-shard tasks (temporal/column_shards); sparse-resolved
//     scans stay whole.  A one-thread pool is never narrow.
//
// Shard partials merge in ascending shard order into split-invariant
// accumulators, so the result is bit-identical for every thread count.
#pragma once

#include <optional>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/column_shards.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace natscale {

/// Scans periods 0 .. count-1 over `pool` and returns one merged partial
/// per period, in period order.
///   * `series_of(i)` returns the aggregated series of period i; it may run
///     on any pool thread.
///   * `empty` is the value every partial starts from; `Partial` must be
///     copyable and provide `merge(const Partial&)`, exact and
///     order-independent (e.g. Histogram01).
///   * `sink_of(partial, series)` returns the per-trip sink that
///     accumulates one scan (or one column shard of it) of `series` into
///     `partial`.  The scans emit every minimal trip; a sink that samples
///     filters its own (elongation_points does).  The sink is called as a
///     non-const lvalue and destroyed right after its scan, before any
///     merge, so it may buffer trips and complete `partial` in its
///     destructor (OccupancyTally does).
/// Every period adds one to `sweep.deltas_evaluated` and to
/// `sweep.dense_deltas` or `sweep.sparse_deltas`, after the backend
/// select_backend picks for its series; whole-period tasks open a
/// `sweep.delta` span and record `sweep.delta_scan_ns`, shard tasks open a
/// `sweep.shard` span and add to `sweep.shards_scanned`.
template <typename Partial, typename SeriesOf, typename SinkOf>
std::vector<Partial> scan_periods(ThreadPool& pool, std::size_t count, SeriesOf&& series_of,
                                  const Partial& empty, SinkOf&& sink_of) {
    static obs::Counter& deltas_evaluated = obs::counter("sweep.deltas_evaluated");
    static obs::Counter& dense_deltas = obs::counter("sweep.dense_deltas");
    static obs::Counter& sparse_deltas = obs::counter("sweep.sparse_deltas");
    static obs::Counter& shards_scanned = obs::counter("sweep.shards_scanned");
    static obs::LatencyHistogram& scan_ns = obs::histogram("sweep.delta_scan_ns");
    const auto count_period = [&](bool dense) {
        deltas_evaluated.add();
        (dense ? dense_deltas : sparse_deltas).add();
    };
    std::vector<Partial> merged(count, empty);

    if (count >= pool.concurrency()) {
        // Wide list: one task per period.  Each worker's engine allocates
        // its state (dense table or sparse rows) on its first period and
        // reuses it for every later one.
        std::vector<ReachabilityEngine> engines(pool.concurrency());
        pool.parallel_for(count, [&](std::size_t worker, std::size_t index) {
            obs::Span span("sweep.delta");
            const std::uint64_t scan_start = obs::TraceSink::now_ns();
            const GraphSeries series = series_of(index);
            engines[worker].scan_series(series, sink_of(merged[index], series));
            const bool dense = engines[worker].last_backend() == ReachabilityBackend::dense;
            if (span.active()) {
                span.attr("delta", static_cast<std::int64_t>(series.delta()));
                span.attr("simd", to_string(active_simd_isa()));
                span.attr("backend", dense ? "dense" : "sparse");
            }
            count_period(dense);
            scan_ns.record(obs::TraceSink::now_ns() - scan_start);
        });
        return merged;
    }

    // Narrow list: whole-period tasks alone cannot keep the pool busy.  The
    // list is short, so every series is held at once.
    std::vector<std::optional<GraphSeries>> series(count);
    pool.parallel_for(count, [&](std::size_t index) { series[index].emplace(series_of(index)); });

    struct Task {
        std::size_t period = 0;
        NodeId col_begin = 0;  // dense tasks: destination column range
        NodeId col_end = 0;
        bool dense = false;
    };
    // Period-major, ascending shard order within a period: the merge order.
    std::vector<Task> tasks;
    for (std::size_t period = 0; period < count; ++period) {
        const GraphSeries& s = *series[period];
        const bool dense =
            select_backend(s.num_nodes(), s.total_edges(), {}) == ReachabilityBackend::dense;
        count_period(dense);
        if (!dense) {
            tasks.push_back({period, 0, s.num_nodes(), false});
            continue;
        }
        for (const ColumnShard& shard : column_shards(s.num_nodes())) {
            tasks.push_back({period, shard.begin, shard.end, true});
        }
        if (s.num_nodes() == 0) tasks.push_back({period, 0, 0, true});  // empty scan
    }

    std::vector<Partial> partials(tasks.size(), empty);
    std::vector<TemporalReachability> dense_engines(pool.concurrency());
    std::vector<SparseTemporalReachability> sparse_engines(pool.concurrency());
    pool.parallel_for(tasks.size(), [&](std::size_t worker, std::size_t index) {
        const Task& task = tasks[index];
        const GraphSeries& s = *series[task.period];
        obs::Span span("sweep.shard");
        if (span.active()) {
            span.attr("item", static_cast<std::uint64_t>(task.period));
            span.attr("col_begin", static_cast<std::uint64_t>(task.col_begin));
            span.attr("col_end", static_cast<std::uint64_t>(task.col_end));
            span.attr("backend", task.dense ? "dense" : "sparse");
            span.attr("simd", to_string(active_simd_isa()));
        }
        shards_scanned.add();
        auto sink = sink_of(partials[index], s);
        if (task.dense) {
            dense_engines[worker].scan_series_columns(s, task.col_begin, task.col_end, sink);
        } else {
            sparse_engines[worker].scan_series(s, sink);
        }
    });
    for (std::size_t t = 0; t < tasks.size(); ++t) merged[tasks[t].period].merge(partials[t]);
    return merged;
}

}  // namespace natscale

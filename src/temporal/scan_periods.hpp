// scan_periods: the one function that scans a list of aggregation periods in
// parallel, for DeltaSweepEngine::evaluate (occupancy histograms) and
// elongation_curve (paper Section 8).
//
// Every period is one pool task: it aggregates its series, scans it on its
// worker's reusable ReachabilityEngine and accumulates into the period's own
// partial.  One task writes each partial, in the scan's trip order, so the
// result is bit-identical for every thread count.  A list narrower than the
// pool leaves the spare threads idle.
#pragma once

#include <vector>

#include "linkstream/graph_series.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace natscale {

/// Scans periods 0 .. count-1 over `pool` and returns one partial per
/// period, in period order.
///   * `series_of(i)` returns the aggregated series of period i; it runs on
///     the pool thread that scans period i.
///   * `empty` is the value every partial starts from.
///   * `sink_of(partial, series)` returns the per-trip sink that
///     accumulates the scan of `series` into `partial`.  The scans emit
///     every minimal trip; a sink that samples filters its own
///     (elongation_points does).  The sink is called as a non-const lvalue
///     and destroyed right after its scan, so it may buffer trips and
///     complete `partial` in its destructor (OccupancyTally does).
/// Every period opens one `sweep.delta` span, records one
/// `sweep.delta_scan_ns` sample, and adds one to `sweep.deltas_evaluated`
/// and to `sweep.dense_deltas` or `sweep.sparse_deltas`, after the backend
/// select_backend picks for its series.
template <typename Partial, typename SeriesOf, typename SinkOf>
std::vector<Partial> scan_periods(ThreadPool& pool, std::size_t count, SeriesOf&& series_of,
                                  const Partial& empty, SinkOf&& sink_of) {
    static obs::Counter& deltas_evaluated = obs::counter("sweep.deltas_evaluated");
    static obs::Counter& dense_deltas = obs::counter("sweep.dense_deltas");
    static obs::Counter& sparse_deltas = obs::counter("sweep.sparse_deltas");
    static obs::LatencyHistogram& scan_ns = obs::histogram("sweep.delta_scan_ns");
    std::vector<Partial> partials(count, empty);
    // Each worker's engine allocates its state (dense table or sparse rows)
    // on its first period and reuses it for every later one.
    std::vector<ReachabilityEngine> engines(pool.concurrency());
    pool.parallel_for(count, [&](std::size_t worker, std::size_t index) {
        obs::Span span("sweep.delta");
        const std::uint64_t scan_start = obs::TraceSink::now_ns();
        const GraphSeries series = series_of(index);
        engines[worker].scan_series(series, sink_of(partials[index], series));
        const bool dense = engines[worker].last_backend() == ReachabilityBackend::dense;
        if (span.active()) {
            span.attr("delta", static_cast<std::int64_t>(series.delta()));
            span.attr("simd", to_string(active_simd_isa()));
            span.attr("backend", dense ? "dense" : "sparse");
        }
        deltas_evaluated.add();
        (dense ? dense_deltas : sparse_deltas).add();
        scan_ns.record(obs::TraceSink::now_ns() - scan_start);
    });
    return partials;
}

}  // namespace natscale

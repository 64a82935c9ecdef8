#include "core/delta_sweep.hpp"

#include <optional>

#include "linkstream/aggregation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability_backend.hpp"
#include "temporal/sharded_scan.hpp"
#include "util/simd.hpp"

namespace natscale {

DeltaPoint score_delta_point(Time delta, const Histogram01& histogram,
                             std::size_t shannon_slots) {
    DeltaPoint point;
    point.delta = delta;
    point.scores = compute_all_metrics(histogram, shannon_slots);
    point.num_trips = histogram.total();
    point.occupancy_mean = histogram.mean();
    return point;
}

DeltaSweepEngine::DeltaSweepEngine(const LinkStream& stream, DeltaSweepOptions options)
    : stream_(&stream), options_(options) {}

GraphSeries DeltaSweepEngine::aggregate(Time delta) const {
    return natscale::aggregate(*stream_, delta);
}

ThreadPool& DeltaSweepEngine::pool() {
    if (pool_ == nullptr) {
        // num_threads is THE concurrency (and therefore memory) cap: one
        // dense engine is cloned per pool worker, so the pool is never
        // widened beyond it.  Both the per-period tasks and the shard tasks
        // of the narrow-grid path run on this one pool.
        pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    }
    return *pool_;
}

std::vector<DeltaPoint> DeltaSweepEngine::evaluate(std::span<const Time> grid,
                                                   std::vector<Histogram01>* histograms_out) {
    std::vector<DeltaPoint> points(grid.size());
    if (histograms_out != nullptr) {
        histograms_out->assign(grid.size(), Histogram01(options_.histogram_bins));
    }
    if (grid.empty()) return points;

    ThreadPool& workers = pool();
    if (narrower_than_pool(grid.size(), workers)) {
        // Narrow grid: whole-period tasks alone cannot keep the pool busy,
        // so split the dense scans by destination column.  Bit-identical to
        // the outer path (the shard partition is a function of n, partials
        // merge in fixed ascending order, and the accumulators are
        // split-invariant).
        return evaluate_sharded(grid, histograms_out, workers);
    }
    // One reusable reachability engine per worker: its state (dense table
    // or sparse rows, per the selected backend) is allocated on the worker's
    // first period and reused for every later one.
    std::vector<ReachabilityEngine> engines(workers.concurrency());
    ReachabilityOptions scan_options;
    scan_options.backend = options_.backend;

    static obs::Counter& deltas_evaluated = obs::counter("sweep.deltas_evaluated");
    static obs::LatencyHistogram& scan_ns = obs::histogram("sweep.delta_scan_ns");
    workers.parallel_for(grid.size(), [&](std::size_t worker, std::size_t index) {
        obs::Span span("sweep.delta");
        if (span.active()) {
            span.attr("delta", static_cast<std::int64_t>(grid[index]));
            span.attr("simd", to_string(active_simd_isa()));
        }
        const std::uint64_t scan_start = obs::TraceSink::now_ns();
        const GraphSeries series = aggregate(grid[index]);
        Histogram01 hist(options_.histogram_bins);
        engines[worker].scan_series(
            series, [&](const MinimalTrip& trip) { hist.add(series_occupancy(trip)); },
            scan_options);
        if (span.active()) {
            span.attr("backend",
                      engines[worker].last_backend() == ReachabilityBackend::dense
                          ? "dense"
                          : "sparse");
        }
        deltas_evaluated.add();
        scan_ns.record(obs::TraceSink::now_ns() - scan_start);

        points[index] = score_delta_point(grid[index], hist, options_.shannon_slots);
        if (histograms_out != nullptr) (*histograms_out)[index] = std::move(hist);
    });
    return points;
}

std::vector<DeltaPoint> DeltaSweepEngine::evaluate_sharded(
    std::span<const Time> grid, std::vector<Histogram01>* histograms_out,
    ThreadPool& workers) {
    // 1. Materialize every period's series (they are all needed at once and
    //    the grid is narrow, so the footprint is bounded).
    std::vector<std::optional<GraphSeries>> series(grid.size());
    workers.parallel_for(grid.size(),
                         [&](std::size_t index) { series[index].emplace(aggregate(grid[index])); });
    std::vector<const GraphSeries*> series_ptrs(grid.size());
    for (std::size_t g = 0; g < grid.size(); ++g) series_ptrs[g] = &*series[g];

    // 2. Plan + fan out through the shared sharded-scan driver
    //    (temporal/sharded_scan.hpp): dense scans split per column shard,
    //    sparse ones stay whole, each task writing its own histogram
    //    partial.
    ReachabilityOptions scan_options;
    scan_options.backend = options_.backend;
    const ShardedScanPlan plan = plan_sharded_scans(series_ptrs, scan_options);
    std::vector<Histogram01> partials(plan.tasks.size(),
                                      Histogram01(options_.histogram_bins));
    run_sharded_scans(workers, series_ptrs, plan, scan_options,
                      [&](std::size_t task, const GraphSeries&) {
                          Histogram01& hist = partials[task];
                          return [&hist](const MinimalTrip& trip) {
                              hist.add(series_occupancy(trip));
                          };
                      });

    // 3. Merge each period's partials in ascending shard order and score.
    static obs::Counter& deltas_evaluated = obs::counter("sweep.deltas_evaluated");
    deltas_evaluated.add(grid.size());
    std::vector<DeltaPoint> points(grid.size());
    for (std::size_t g = 0; g < grid.size(); ++g) {
        Histogram01 hist = std::move(partials[plan.first_task[g]]);
        for (std::size_t t = plan.first_task[g] + 1; t < plan.first_task[g + 1]; ++t) {
            hist.merge(partials[t]);
        }
        points[g] = score_delta_point(grid[g], hist, options_.shannon_slots);
        if (histograms_out != nullptr) (*histograms_out)[g] = std::move(hist);
    }
    return points;
}

}  // namespace natscale

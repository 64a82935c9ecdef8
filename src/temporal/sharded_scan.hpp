// Shared driver for column-sharded batch scans: the narrow-grid paths of
// DeltaSweepEngine::evaluate and elongation_curve both decompose a list of
// aggregated series into (item, column shard) tasks — dense-resolved scans
// split per shard (temporal/column_shards), sparse ones stay whole — and fan
// the tasks out over one thread pool with per-worker engines.  Keeping the
// switch, the plan building and the dispatch here means the two
// "bit-identical" callers cannot drift apart; they differ only in their
// per-task partial type and merge/scoring step, which stay at the call
// sites.
#pragma once

#include <span>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/column_shards.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace natscale {

struct ShardedScanTask {
    std::size_t item = 0;   // index into the series list
    NodeId col_begin = 0;   // dense tasks: destination column range
    NodeId col_end = 0;
    bool dense = false;
};

/// Task list plus CSR offsets: tasks of series i are
/// tasks[first_task[i] .. first_task[i + 1]), in ascending shard order —
/// the fixed order the caller's partials must merge in.  Every series gets
/// at least one task.
struct ShardedScanPlan {
    std::vector<ShardedScanTask> tasks;
    std::vector<std::size_t> first_task;
};

/// True when `items` whole-series tasks cannot keep every thread of `pool`
/// busy — the case the (item, column shard) decomposition exists for.  A
/// one-thread pool is never narrow, so sequential runs never shard.
inline bool narrower_than_pool(std::size_t items, const ThreadPool& pool) {
    return items < pool.concurrency();
}

/// Resolves each series' backend exactly as ReachabilityEngine would (same
/// select_backend inputs) and shards the dense ones.
inline ShardedScanPlan plan_sharded_scans(std::span<const GraphSeries* const> series,
                                          const ReachabilityOptions& options) {
    ShardedScanPlan plan;
    plan.first_task.resize(series.size() + 1, 0);
    for (std::size_t i = 0; i < series.size(); ++i) {
        plan.first_task[i] = plan.tasks.size();
        const GraphSeries& s = *series[i];
        const ReachabilityBackend backend =
            select_backend(s.num_nodes(), s.total_edges(), options);
        if (backend == ReachabilityBackend::dense) {
            for (const ColumnShard& shard : column_shards(s.num_nodes())) {
                plan.tasks.push_back({i, shard.begin, shard.end, true});
            }
            if (s.num_nodes() == 0) {
                plan.tasks.push_back({i, 0, 0, true});  // degenerate empty scan
            }
        } else {
            plan.tasks.push_back({i, 0, s.num_nodes(), false});
        }
    }
    plan.first_task[series.size()] = plan.tasks.size();
    return plan;
}

/// Fans every task of `plan` out over the whole of `pool`, one reusable
/// engine pair per worker.
/// `sink_of(task_index, series)` returns the per-trip sink for that task —
/// typically a lambda binding the task's own partial slot, which is what
/// keeps the fan-out deterministic at every thread count.
template <typename SinkFactory>
void run_sharded_scans(ThreadPool& pool, std::span<const GraphSeries* const> series,
                       const ShardedScanPlan& plan, const ReachabilityOptions& options,
                       SinkFactory&& sink_of) {
    std::vector<TemporalReachability> dense_engines(pool.concurrency());
    std::vector<SparseTemporalReachability> sparse_engines(pool.concurrency());
    static obs::Counter& shards_scanned = obs::counter("sweep.shards_scanned");
    pool.parallel_for(plan.tasks.size(), [&](std::size_t worker, std::size_t index) {
        const ShardedScanTask& task = plan.tasks[index];
        const GraphSeries& s = *series[task.item];
        obs::Span span("sweep.shard");
        if (span.active()) {
            span.attr("item", static_cast<std::uint64_t>(task.item));
            span.attr("col_begin", static_cast<std::uint64_t>(task.col_begin));
            span.attr("col_end", static_cast<std::uint64_t>(task.col_end));
            span.attr("backend", task.dense ? "dense" : "sparse");
            span.attr("simd", to_string(active_simd_isa()));
        }
        shards_scanned.add();
        const auto sink = sink_of(index, s);
        if (task.dense) {
            dense_engines[worker].scan_series_columns(s, task.col_begin, task.col_end, sink,
                                                      options);
        } else {
            sparse_engines[worker].scan_series(s, sink, options);
        }
    });
}

}  // namespace natscale

#include "core/delta_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "linkstream/aggregation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability_backend.hpp"
#include "temporal/sharded_scan.hpp"
#include "util/contracts.hpp"
#include "util/simd.hpp"

namespace natscale {

namespace {

/// Writes the sorted index to an unlinked temp file and maps it back, so
/// the 4 B/event stop being anonymous (unswappable-without-swap) RAM and
/// become clean, evictable file pages.  Spilling is an optimization, never
/// a requirement: any failure (unwritable temp dir, fd exhaustion, no real
/// mmap on the platform) returns nullptr and the caller keeps the in-RAM
/// vector.
std::unique_ptr<MappedFile> spill_index(const std::vector<std::uint32_t>& index) noexcept {
    static std::atomic<unsigned> counter{0};
    try {
#ifdef _WIN32
        const unsigned long long pid = 0;
#else
        const auto pid = static_cast<unsigned long long>(::getpid());
#endif
        // pid + process-local counter: unique across concurrent processes
        // sharing TMPDIR and across engines within this process.
        const auto path = std::filesystem::temp_directory_path() /
                          ("natscale_pair_index_" + std::to_string(pid) + "_" +
                           std::to_string(counter.fetch_add(1)) + ".bin");
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            if (!os) return nullptr;
            os.write(reinterpret_cast<const char*>(index.data()),
                     static_cast<std::streamsize>(index.size() * sizeof(std::uint32_t)));
            if (!os) {
                os.close();
                std::error_code ec;
                std::filesystem::remove(path, ec);
                return nullptr;
            }
        }
        auto mapping = std::make_unique<MappedFile>(MappedFile::open(path.string()));
        // Unlink immediately: the mapping keeps the inode alive (POSIX), and
        // the file can never leak.  Where unlink-while-mapped is unsupported
        // the remove simply fails and the temp dir gets a stray file; ignore.
        std::error_code ec;
        std::filesystem::remove(path, ec);
        if (!mapping->is_mapped()) return nullptr;  // heap fallback: keep the vector
        return mapping;
    } catch (...) {
        return nullptr;
    }
}

}  // namespace

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
    : stream_(&stream), options_(options) {
    use_pair_index_ = options_.aggregation == SweepAggregation::pair_index ||
                      (options_.aggregation == SweepAggregation::automatic &&
                       stream.source().memory_resident());
    if (use_pair_index_) build_pair_index();
}

void DeltaSweepEngine::build_pair_index() {
    const auto events = stream_->events();
    NATSCALE_EXPECTS(events.size() <= std::numeric_limits<std::uint32_t>::max());
    pair_order_storage_.resize(events.size());
    for (std::uint32_t i = 0; i < pair_order_storage_.size(); ++i) pair_order_storage_[i] = i;
    // Events are (t, u, v)-sorted; a stable sort by endpoints yields the
    // (u, v, t) order, so within a pair the window index is nondecreasing
    // for any Delta — the per-(pair, window) dedup in aggregate() is one
    // comparison.
    std::stable_sort(pair_order_storage_.begin(), pair_order_storage_.end(),
                     [&events](std::uint32_t a, std::uint32_t b) {
                         return events[a].u != events[b].u ? events[a].u < events[b].u
                                                          : events[a].v < events[b].v;
                     });

    const bool want_spill = options_.index_spill == IndexSpillMode::always ||
                            (options_.index_spill == IndexSpillMode::automatic &&
                             !stream_->source().memory_resident());
    if (want_spill && !pair_order_storage_.empty()) {
        index_spill_ = spill_index(pair_order_storage_);
    }
    if (index_spill_ != nullptr) {
        pair_order_ = std::span<const std::uint32_t>(
            reinterpret_cast<const std::uint32_t*>(index_spill_->data()),
            index_spill_->size() / sizeof(std::uint32_t));
        pair_order_storage_ = {};  // release the in-RAM copy
    } else {
        pair_order_ = pair_order_storage_;
    }
}

GraphSeries DeltaSweepEngine::aggregate(Time delta) const {
    NATSCALE_EXPECTS(delta >= 1);
    if (!use_pair_index_) {
        // Chunked mode: the window-sequential out-of-core pipeline, which
        // releases consumed mmap pages behind its scan.  Bit-identical to
        // the pair-index path (both emit sorted, deduplicated edge lists).
        return natscale::aggregate(*stream_, delta);
    }
    const auto events = stream_->events();

    // Pass 1 (time order): non-empty windows are contiguous runs, which
    // yields the snapshot list already sorted by window index, plus each
    // event's snapshot slot for O(1) lookup in pass 2.
    std::vector<Snapshot> snapshots;
    std::vector<std::uint32_t> slot_of_event(events.size());
    std::size_t i = 0;
    while (i < events.size()) {
        const WindowIndex k = window_of(events[i].t, delta);
        const auto slot = static_cast<std::uint32_t>(snapshots.size());
        snapshots.push_back(Snapshot{k, {}});
        while (i < events.size() && window_of(events[i].t, delta) == k) {
            slot_of_event[i] = slot;
            ++i;
        }
    }

    // Pass 2 (pair order): append each (pair, window) occurrence once.
    // Pairs arrive in increasing (u, v), so every snapshot's edge list comes
    // out sorted and deduplicated with no per-window sort.
    bool have_prev = false;
    Event prev_event{};
    std::uint32_t prev_slot = 0;
    for (const std::uint32_t index : pair_order_) {
        const Event& e = events[index];
        const std::uint32_t slot = slot_of_event[index];
        if (have_prev && prev_event.u == e.u && prev_event.v == e.v && prev_slot == slot) {
            continue;
        }
        snapshots[slot].edges.emplace_back(e.u, e.v);
        have_prev = true;
        prev_event = e;
        prev_slot = slot;
    }

    return GraphSeries(stream_->num_nodes(), num_windows(stream_->period_end(), delta),
                       delta, stream_->directed(), std::move(snapshots));
}

ThreadPool& DeltaSweepEngine::pool() {
    if (pool_ == nullptr) {
        // num_threads is THE concurrency (and therefore memory) cap: one
        // dense engine is cloned per pool worker, so the pool is never
        // widened beyond it.  scan_threads only changes how the work is
        // decomposed — the shard tasks of the narrow-grid path share this
        // same pool.
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
    if (options_.scan_threads != 1 && grid.size() < workers.concurrency()) {
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
                      sharded_scan_workers(options_.scan_threads, grid.size()),
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

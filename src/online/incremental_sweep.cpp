#include "online/incremental_sweep.hpp"

#include <algorithm>
#include <limits>

#include "core/occupancy.hpp"
#include "linkstream/aggregation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "temporal/minimal_trip.hpp"
#include "util/contracts.hpp"

namespace natscale {

namespace {

obs::Counter& period_counter(ReachabilityBackend backend) {
    static obs::Counter& dense = obs::counter("online.dense_periods");
    static obs::Counter& sparse = obs::counter("online.sparse_periods");
    return backend == ReachabilityBackend::dense ? dense : sparse;
}

/// Feeds the events of windows [first event at `begin`, `end`) at period
/// `delta` to the time-reversed sweep: one instant per non-empty window, in
/// increasing window order, labeled -k (strictly decreasing — the order the
/// backward kernel requires), arcs reversed when directed.  Emitted trips
/// are mapped back to original orientation and window indices and tallied
/// into `histogram`, complete on return.  Preconditions: `begin` is the
/// first event of its window (the callers' fold boundaries are
/// window-aligned).
void relax_windows(ReachabilityEngine& sweep, bool directed,
                   std::span<const Event> events, std::size_t begin, std::size_t end,
                   Time delta, Histogram01& histogram) {
    OccupancyTally tally(histogram);
    std::vector<Edge> edge_scratch;
    std::size_t i = begin;
    while (i < end) {
        const WindowIndex k = window_of(events[i].t, delta);
        edge_scratch.clear();
        for (; i < end && window_of(events[i].t, delta) == k; ++i) {
            // Reversing time reverses every arc; undirected edges are
            // direction-expanded identically either way, so only directed
            // streams swap endpoints here.
            if (directed) {
                edge_scratch.emplace_back(events[i].v, events[i].u);
            } else {
                edge_scratch.emplace_back(events[i].u, events[i].v);
            }
        }
        sweep.relax_window(edge_scratch, directed, k, [&](const MinimalTrip& trip) {
            // Reversed trip (a, b, -k2, -k1) is original trip (b, a, k1, k2);
            // hops and duration (hence occupancy) are preserved.
            tally(MinimalTrip{trip.v, trip.u, -trip.arr, -trip.dep, trip.hops});
        });
    }
}

/// First index in [begin, events.size()) with t >= bound (events are
/// t-sorted).
std::size_t partition_by_time(std::span<const Event> events, std::size_t begin, Time bound) {
    const auto it = std::lower_bound(events.begin() + static_cast<std::ptrdiff_t>(begin),
                                     events.end(), bound,
                                     [](const Event& e, Time t) { return e.t < t; });
    return static_cast<std::size_t>(it - events.begin());
}

}  // namespace

OnlineSweepEngine::OnlineSweepEngine(NodeId num_nodes, bool directed,
                                     OnlineSweepOptions options)
    : num_nodes_(num_nodes), directed_(directed), options_(std::move(options)) {
    NATSCALE_EXPECTS(num_nodes >= 2);
    NATSCALE_EXPECTS(!options_.grid.empty());
    NATSCALE_EXPECTS(options_.shannon_slots >= 1 && options_.shannon_slots <= kMaxShannonSlots);
    grid_ = options_.grid;
    std::sort(grid_.begin(), grid_.end());
    grid_.erase(std::unique(grid_.begin(), grid_.end()), grid_.end());
    NATSCALE_EXPECTS(grid_.front() >= 1);

    const ReachabilityBackend backend = initial_backend(num_nodes_, grid_.size());
    periods_.resize(grid_.size());
    for (std::size_t g = 0; g < grid_.size(); ++g) {
        PeriodState& period = periods_[g];
        period.delta = grid_[g];
        period.histogram = Histogram01(options_.histogram_bins);
        period.sweep.begin(num_nodes_, backend);
    }
    count_period_backends();
}

ReachabilityBackend OnlineSweepEngine::initial_backend(NodeId num_nodes, std::size_t periods) {
    if (select_backend(num_nodes, 0, {}) != ReachabilityBackend::dense) {
        return ReachabilityBackend::sparse;
    }
    // select_backend bounds one table; n^2 x 8 B fits size_t here.
    const std::size_t table_bytes =
        static_cast<std::size_t>(num_nodes) * num_nodes * kDensePairBytes;
    return periods <= kDenseMemoryBudgetBytes / table_bytes ? ReachabilityBackend::dense
                                                            : ReachabilityBackend::sparse;
}

std::uint64_t OnlineSweepEngine::initial_state_bytes(NodeId num_nodes, std::size_t periods,
                                                     std::size_t histogram_bins) {
    constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();
    const auto times = [](std::uint64_t a, std::uint64_t b) {
        std::uint64_t product = 0;
        return __builtin_mul_overflow(a, b, &product) ? kSaturated : product;
    };
    const auto plus = [](std::uint64_t a, std::uint64_t b) {
        std::uint64_t sum = 0;
        return __builtin_add_overflow(a, b, &sum) ? kSaturated : sum;
    };
    const std::uint64_t row_bytes =
        initial_backend(num_nodes, periods) == ReachabilityBackend::dense
            ? times(num_nodes, kDensePairBytes)
            : sizeof(ReachRow);
    const std::uint64_t per_node = plus(row_bytes, sizeof(std::int32_t));
    const std::uint64_t per_period =
        plus(times(num_nodes, per_node), times(histogram_bins, sizeof(std::uint64_t)));
    return times(per_period, periods);
}

void OnlineSweepEngine::count_period_backends() const {
    for (const PeriodState& period : periods_) period_counter(period.sweep.last_backend()).add();
}

ThreadPool& OnlineSweepEngine::pool() {
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    return *pool_;
}

std::uint64_t OnlineSweepEngine::folded_events(std::size_t index) const {
    NATSCALE_EXPECTS(index < periods_.size());
    return periods_[index].folded;
}

ReachabilityBackend OnlineSweepEngine::period_backend(std::size_t index) const {
    NATSCALE_EXPECTS(index < periods_.size());
    return periods_[index].sweep.last_backend();
}

void OnlineSweepEngine::sync(std::span<const Event> events, Time watermark) {
    NATSCALE_EXPECTS(events.size() >= synced_events_);
    NATSCALE_EXPECTS(watermark >= watermark_);
    synced_events_ = events.size();
    watermark_ = watermark;

    obs::Span span("online.sync");
    if (span.active()) {
        span.attr("events", static_cast<std::uint64_t>(events.size()));
        span.attr("watermark", static_cast<std::int64_t>(watermark));
    }
    static obs::Counter& syncs = obs::counter("online.syncs");
    static obs::Gauge& synced_gauge = obs::gauge("online.synced_events");
    static obs::Gauge& watermark_gauge = obs::gauge("online.watermark_ticks");
    syncs.add();
    synced_gauge.set(static_cast<std::int64_t>(synced_events_));
    watermark_gauge.set(watermark_ == kInfiniteTime
                            ? std::int64_t{-1}
                            : static_cast<std::int64_t>(watermark_));

    pool().parallel_for(periods_.size(), [&](std::size_t index) {
        PeriodState& period = periods_[index];
        // Window k is sealed once watermark >= k * delta: every event of
        // [(k-1)*delta, k*delta) is below the watermark, hence final and
        // present.  seal_time is the exclusive bound of the sealed region —
        // a window boundary, so the fold never splits a window.
        const Time seal_time = (watermark_ / period.delta) * period.delta;
        const std::size_t fold_end =
            partition_by_time(events, static_cast<std::size_t>(period.folded), seal_time);
        if (fold_end == period.folded) return;
        const ReachabilityBackend before = period.sweep.last_backend();
        relax_windows(period.sweep, directed_, events,
                      static_cast<std::size_t>(period.folded), fold_end, period.delta,
                      period.histogram);
        // Frozen periods keep their tables only: dense scratch can match a
        // table's size, and refresh() clones the frozen state.
        period.sweep.release_scratch();
        period.folded = fold_end;
        // A dense period that reached the window-index limit moved to sparse.
        const ReachabilityBackend after = period.sweep.last_backend();
        if (after != before) period_counter(after).add();
    });
}

OnlineReport OnlineSweepEngine::refresh(std::span<const Event> events,
                                        std::vector<Histogram01>* histograms_out) {
    NATSCALE_EXPECTS(events.size() >= synced_events_);

    obs::Span span("online.refresh");
    if (span.active()) {
        span.attr("events", static_cast<std::uint64_t>(events.size()));
        span.attr("grid", static_cast<std::uint64_t>(periods_.size()));
    }
    static obs::Counter& refreshes = obs::counter("online.refreshes");
    static obs::LatencyHistogram& refresh_ns = obs::histogram("online.refresh_ns");
    refreshes.add();
    const std::uint64_t refresh_start = obs::TraceSink::now_ns();

    OnlineReport report;
    report.points.resize(periods_.size());
    report.events_covered = events.size();
    if (histograms_out != nullptr) {
        histograms_out->assign(periods_.size(), Histogram01(options_.histogram_bins));
    }

    pool().parallel_for(periods_.size(), [&](std::size_t index) {
        const PeriodState& period = periods_[index];
        // Clone the frozen state, sweep the unsealed tail on the clone, and
        // score frozen + tail.  The clone makes refresh repeatable: the
        // tail windows will be swept again (possibly extended) next time.
        ReachabilityEngine live = period.sweep;
        Histogram01 histogram = period.histogram;
        relax_windows(live, directed_, events, static_cast<std::size_t>(period.folded),
                      events.size(), period.delta, histogram);
        report.points[index] =
            score_delta_point(period.delta, histogram, options_.shannon_slots);
        if (histograms_out != nullptr) (*histograms_out)[index] = std::move(histogram);
    });

    report.best_index = argmax_point(report.points, options_.metric);
    report.at_gamma = report.points[report.best_index];
    report.gamma = report.at_gamma.delta;
    refresh_ns.record(obs::TraceSink::now_ns() - refresh_start);
    return report;
}

}  // namespace natscale

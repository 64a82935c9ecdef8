#include "core/validation.hpp"

#include <optional>

#include "linkstream/aggregation.hpp"
#include "stats/exact_sum.hpp"
#include "temporal/reachability_backend.hpp"
#include "temporal/sharded_scan.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/thread_pool.hpp"

namespace natscale {

std::vector<LostTransitionPoint> lost_transitions_curve(const ShortestTransitionSet& set,
                                                        const std::vector<Time>& deltas) {
    std::vector<LostTransitionPoint> curve;
    curve.reserve(deltas.size());
    for (Time delta : deltas) {
        curve.push_back({delta, set.lost_fraction(delta)});
    }
    return curve;
}

std::vector<LostTransitionPoint> lost_transitions_curve(const LinkStream& stream,
                                                        const std::vector<Time>& deltas) {
    const ShortestTransitionSet set(stream);
    return lost_transitions_curve(set, deltas);
}

namespace {

/// Per-scan (or per column shard) elongation partial.  The sum is exact and
/// order-independent (stats/exact_sum.hpp), so merging shard partials — in
/// any order — reproduces the unsharded accumulation bit-for-bit.
struct ElongationPartial {
    ExactSum sum;
    std::uint64_t measured = 0;
};

/// Adds one minimal trip's elongation term; shared by the sequential and
/// column-sharded paths so both accumulate the identical quantity.
void accumulate_elongation(const MinimalTrip& trip, Time delta, const StreamTripStore& store,
                           ElongationPartial& partial) {
    if (trip.dep == trip.arr) return;  // e_P defined only for t_u != t_v
    // Absolute time window spanned by the trip.  Definition 8 writes the
    // interval as [(t_u - 1) Delta, t_v Delta]; with integer ticks the
    // instants belonging to windows t_u..t_v are exactly
    // [(t_u - 1) Delta, t_v Delta - 1] — the literal right endpoint is
    // the first instant of window t_v + 1, which the trip does not span
    // (and a direct link there would make time_L zero).
    const Time window_begin = (trip.dep - 1) * delta;
    const Time window_end = trip.arr * delta - 1;
    const auto stream_duration =
        store.min_duration_within(trip.u, trip.v, window_begin, window_end);
    // A minimal series trip always embeds a stream trip in its window
    // (each hop's window holds at least one matching event, at strictly
    // increasing times); duration > 0 because a zero-duration stream trip
    // (a single link) would make the multi-window series trip non-minimal.
    NATSCALE_CHECK(stream_duration.has_value());
    NATSCALE_CHECK(*stream_duration > 0);
    const double span_ticks =
        static_cast<double>(trip.arr - trip.dep + 1) * static_cast<double>(delta);
    partial.sum.add(span_ticks / static_cast<double>(*stream_duration));
    ++partial.measured;
}

ElongationPoint point_of(Time delta, const ElongationPartial& partial) {
    ElongationPoint point;
    point.delta = delta;
    point.measured_trips = partial.measured;
    point.mean_elongation =
        partial.measured == 0
            ? 0.0
            : partial.sum.value() / static_cast<double>(partial.measured);
    return point;
}

/// Elongation of one aggregated series against the stream trip store; the
/// reachability engine is caller-provided so a sweep can reuse one per
/// worker thread.
ElongationPoint elongation_of_series(const GraphSeries& series, const StreamTripStore& store,
                                     ReachabilityEngine& engine) {
    const Time delta = series.delta();
    ReachabilityOptions options;
    options.pair_sample_divisor = store.pair_sample_divisor();

    ElongationPartial partial;
    engine.scan_series(series, [&](const MinimalTrip& trip) {
        accumulate_elongation(trip, delta, store, partial);
    }, options);
    return point_of(delta, partial);
}

}  // namespace

ElongationPoint elongation_at(const LinkStream& stream, Time delta,
                              const StreamTripStore& store) {
    NATSCALE_EXPECTS(delta >= 1);
    ReachabilityEngine engine;
    return elongation_of_series(aggregate(stream, delta), store, engine);
}

std::vector<ElongationPoint> elongation_curve(const LinkStream& stream,
                                              const std::vector<Time>& deltas,
                                              const SweepConfig& options) {
    // Choose a pair-sampling divisor that keeps the store within budget.
    std::uint64_t divisor = 1;
    if (options.max_stored_trips > 0) {
        const std::uint64_t total = StreamTripStore::count_trips(stream);
        if (total > options.max_stored_trips) {
            divisor = ceil_div(static_cast<std::int64_t>(total),
                               static_cast<std::int64_t>(options.max_stored_trips));
        }
    }
    StreamTripStore::Options store_options;
    store_options.pair_sample_divisor = divisor;
    const StreamTripStore store(stream, store_options);

    // The periods are independent: fan the scans out, one result slot and
    // one reachability engine per worker.  num_threads is THE concurrency
    // (and memory) cap; the shard tasks of a narrow period list share this
    // pool.
    ThreadPool pool(options.num_threads);

    if (!narrower_than_pool(deltas.size(), pool)) {
        // Wide period list: one whole-period task per entry.
        std::vector<ReachabilityEngine> engines(pool.concurrency());
        std::vector<ElongationPoint> curve(deltas.size());
        pool.parallel_for(deltas.size(), [&](std::size_t worker, std::size_t index) {
            curve[index] =
                elongation_of_series(aggregate(stream, deltas[index]), store, engines[worker]);
        });
        return curve;
    }

    // Narrow period list: split the dense scans by destination column, one
    // elongation partial per (period, shard) task, merged in ascending shard
    // order.  Bit-identical to the whole-period path (exact sums).
    std::vector<std::optional<GraphSeries>> series(deltas.size());
    pool.parallel_for(deltas.size(), [&](std::size_t index) {
        series[index].emplace(aggregate(stream, deltas[index]));
    });
    std::vector<const GraphSeries*> series_ptrs(deltas.size());
    for (std::size_t d = 0; d < deltas.size(); ++d) series_ptrs[d] = &*series[d];

    ReachabilityOptions scan_options;
    scan_options.pair_sample_divisor = store.pair_sample_divisor();
    const ShardedScanPlan plan = plan_sharded_scans(series_ptrs, scan_options);
    std::vector<ElongationPartial> partials(plan.tasks.size());
    run_sharded_scans(pool, series_ptrs, plan, scan_options,
                      [&](std::size_t task, const GraphSeries& s) {
                          ElongationPartial& partial = partials[task];
                          const Time delta = s.delta();
                          return [&partial, delta, &store](const MinimalTrip& trip) {
                              accumulate_elongation(trip, delta, store, partial);
                          };
                      });

    std::vector<ElongationPoint> curve(deltas.size());
    for (std::size_t d = 0; d < deltas.size(); ++d) {
        ElongationPartial merged;
        for (std::size_t t = plan.first_task[d]; t < plan.first_task[d + 1]; ++t) {
            merged.sum.merge(partials[t].sum);
            merged.measured += partials[t].measured;
        }
        curve[d] = point_of(deltas[d], merged);
    }
    return curve;
}

}  // namespace natscale

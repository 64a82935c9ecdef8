#include "core/validation.hpp"

#include <span>

#include "linkstream/aggregation.hpp"
#include "stats/exact_sum.hpp"
#include "temporal/scan_periods.hpp"
#include "temporal/trip_store.hpp"
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

/// Per-period elongation partial, filled by the period's one scan.
struct ElongationPartial {
    ExactSum sum;
    std::uint64_t measured = 0;
};

/// Adds one minimal trip's elongation term to the partial of its scan.
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
    const auto stream_time =
        store.min_duration_within(trip.u, trip.v, window_begin, window_end);
    // A minimal series trip always embeds a stream trip in its window
    // (each hop's window holds at least one matching event, at strictly
    // increasing times); duration > 0 because a zero-duration stream trip
    // (a single link) would make the multi-window series trip non-minimal.
    NATSCALE_CHECK(stream_time.has_value());
    NATSCALE_CHECK(*stream_time > 0);
    const double span_ticks =
        static_cast<double>(trip.arr - trip.dep + 1) * static_cast<double>(delta);
    partial.sum.add(span_ticks / static_cast<double>(*stream_time));
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

/// Elongation points of every period of `deltas`, scanned on `pool` by
/// scan_periods (temporal/scan_periods) against the stream trip store.  The
/// series sinks keep the pairs the store keeps, so both sides see the same
/// pairs.
std::vector<ElongationPoint> elongation_points(const LinkStream& stream,
                                               std::span<const Time> deltas,
                                               const StreamTripStore& store, ThreadPool& pool) {
    const std::vector<ElongationPartial> partials = scan_periods(
        pool, deltas.size(), [&](std::size_t index) { return aggregate(stream, deltas[index]); },
        ElongationPartial{}, [&store](ElongationPartial& partial, const GraphSeries& series) {
            return [&partial, &store, n = series.num_nodes(), delta = series.delta(),
                    divisor = store.pair_sample_divisor()](const MinimalTrip& trip) {
                if (keeps_pair(n, trip.u, trip.v, divisor)) {
                    accumulate_elongation(trip, delta, store, partial);
                }
            };
        });
    std::vector<ElongationPoint> curve(deltas.size());
    for (std::size_t d = 0; d < deltas.size(); ++d) curve[d] = point_of(deltas[d], partials[d]);
    return curve;
}

}  // namespace

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

    // num_threads is THE concurrency (and memory) cap of the scans.
    ThreadPool pool(options.num_threads);
    return elongation_points(stream, deltas, store, pool);
}

}  // namespace natscale

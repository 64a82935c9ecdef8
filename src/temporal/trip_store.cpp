#include "temporal/trip_store.hpp"

#include <algorithm>

#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/contracts.hpp"

namespace natscale {

StreamTripStore::StreamTripStore(const LinkStream& stream, const Options& options)
    : n_(stream.num_nodes()), divisor_(options.pair_sample_divisor) {
    NATSCALE_EXPECTS(divisor_ >= 1);

    struct Row {
        std::uint64_t key;
        Time dep;
        Time arr;
    };
    std::vector<Row> rows;
    ReachabilityEngine engine;
    engine.scan_series(aggregate(stream, 1), [&](const MinimalTrip& trip) {
        if (!keeps_pair(n_, trip.u, trip.v, divisor_)) return;
        rows.push_back(
            {static_cast<std::uint64_t>(trip.u) * n_ + trip.v, trip.dep - 1, trip.arr - 1});
    });

    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        if (a.key != b.key) return a.key < b.key;
        return a.dep < b.dep;
    });

    deps_.reserve(rows.size());
    arrs_.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size();) {
        const std::uint64_t key = rows[i].key;
        PairRange range;
        range.key = key;
        range.begin = static_cast<std::uint32_t>(deps_.size());
        while (i < rows.size() && rows[i].key == key) {
            deps_.push_back(rows[i].dep);
            arrs_.push_back(rows[i].arr);
            ++i;
        }
        range.end = static_cast<std::uint32_t>(deps_.size());
        index_.push_back(range);
    }
}

const StreamTripStore::PairRange* StreamTripStore::find_pair(std::uint64_t key) const {
    const auto it = std::lower_bound(
        index_.begin(), index_.end(), key,
        [](const PairRange& r, std::uint64_t k) { return r.key < k; });
    if (it == index_.end() || it->key != key) return nullptr;
    return &*it;
}

std::optional<Time> StreamTripStore::min_duration_within(NodeId u, NodeId v, Time window_begin,
                                                         Time window_end) const {
    NATSCALE_EXPECTS(u < n_ && v < n_);
    const PairRange* range = find_pair(static_cast<std::uint64_t>(u) * n_ + v);
    if (range == nullptr) return std::nullopt;

    // Departures ascending: first trip departing at or after window_begin.
    const Time* dep_begin = deps_.data() + range->begin;
    const Time* dep_end = deps_.data() + range->end;
    const Time* it = std::lower_bound(dep_begin, dep_end, window_begin);

    // Arrivals are ascending too (the minimal-trip staircase), so stop as
    // soon as one exceeds window_end.
    std::optional<Time> best;
    for (; it != dep_end; ++it) {
        const std::size_t idx = static_cast<std::size_t>(it - deps_.data());
        if (arrs_[idx] > window_end) break;
        const Time duration = arrs_[idx] - *it;
        if (!best || duration < *best) best = duration;
    }
    return best;
}

std::pair<std::span<const Time>, std::span<const Time>> StreamTripStore::trips_of(
    NodeId u, NodeId v) const {
    NATSCALE_EXPECTS(u < n_ && v < n_);
    const PairRange* range = find_pair(static_cast<std::uint64_t>(u) * n_ + v);
    if (range == nullptr) return {};
    const std::size_t count = range->end - range->begin;
    return {std::span<const Time>(deps_.data() + range->begin, count),
            std::span<const Time>(arrs_.data() + range->begin, count)};
}

std::uint64_t StreamTripStore::count_trips(const LinkStream& stream,
                                           std::uint64_t pair_sample_divisor) {
    ReachabilityEngine engine;
    const NodeId n = stream.num_nodes();
    std::uint64_t count = 0;
    engine.scan_series(aggregate(stream, 1), [&](const MinimalTrip& trip) {
        if (keeps_pair(n, trip.u, trip.v, pair_sample_divisor)) ++count;
    });
    return count;
}

}  // namespace natscale

#include "linkstream/interval_stream.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace natscale {

IntervalStream::IntervalStream(std::vector<IntervalEvent> intervals, NodeId num_nodes,
                               Time period_end, bool directed)
    : intervals_(std::move(intervals)), num_nodes_(num_nodes), period_end_(period_end),
      directed_(directed) {
    NATSCALE_EXPECTS(period_end_ > 0);
    if (!directed_) {
        for (auto& iv : intervals_) {
            if (iv.u > iv.v) std::swap(iv.u, iv.v);
        }
    }
    for (const auto& iv : intervals_) {
        NATSCALE_EXPECTS(iv.u < num_nodes_ && iv.v < num_nodes_);
        NATSCALE_EXPECTS(iv.u != iv.v);
        NATSCALE_EXPECTS(iv.begin >= 0 && iv.begin < iv.end && iv.end <= period_end_);
    }
    std::sort(intervals_.begin(), intervals_.end());
}

Time IntervalStream::total_active_time() const noexcept {
    Time total = 0;
    for (const auto& iv : intervals_) total += iv.end - iv.begin;
    return total;
}

LinkStream oversample(const IntervalStream& stream, const OversampleOptions& options) {
    NATSCALE_EXPECTS(options.sampling_period >= 1);
    NATSCALE_EXPECTS(options.phase >= 0 && options.phase < options.sampling_period);

    std::vector<Event> events;
    for (const auto& iv : stream.intervals()) {
        // First sampling instant >= iv.begin with t = phase (mod period).
        Time t = iv.begin - ((iv.begin - options.phase) % options.sampling_period);
        if (t < iv.begin) t += options.sampling_period;
        for (; t < iv.end; t += options.sampling_period) {
            events.push_back({iv.u, iv.v, t});
        }
    }
    return LinkStream(std::move(events), stream.num_nodes(), stream.period_end(),
                      stream.directed(), /*dedup=*/true);
}

}  // namespace natscale

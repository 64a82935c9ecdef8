#include "linkstream/link_stream.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace natscale {

LinkStream::LinkStream(std::vector<Event> events, NodeId num_nodes, Time period_end,
                       bool directed, bool dedup)
    : num_nodes_(num_nodes), period_end_(period_end), directed_(directed) {
    NATSCALE_EXPECTS(period_end_ > 0);
    if (!directed_) {
        // Canonical endpoint order for undirected links.
        for (auto& e : events) {
            if (e.u > e.v) std::swap(e.u, e.v);
        }
    }
    for (const auto& e : events) {
        NATSCALE_EXPECTS(e.u < num_nodes_ && e.v < num_nodes_);
        NATSCALE_EXPECTS(e.u != e.v);
        NATSCALE_EXPECTS(e.t >= 0 && e.t < period_end_);
    }
    std::sort(events.begin(), events.end());
    if (dedup) {
        events.erase(std::unique(events.begin(), events.end()), events.end());
    }
    distinct_timestamps_ = 0;
    Time prev = -1;
    for (const auto& e : events) {
        if (e.t != prev) {
            ++distinct_timestamps_;
            prev = e.t;
        }
    }
    source_ = EventSource::owning(std::move(events));
}

LinkStream LinkStream::from_source(EventSource source, NodeId num_nodes, Time period_end,
                                   bool directed, std::size_t distinct_timestamps) {
    NATSCALE_EXPECTS(period_end > 0);
    LinkStream stream;
    stream.source_ = std::move(source);
    stream.num_nodes_ = num_nodes;
    stream.period_end_ = period_end;
    stream.directed_ = directed;
    stream.distinct_timestamps_ = distinct_timestamps;
    return stream;
}

Time LinkStream::first_time() const {
    NATSCALE_EXPECTS(!empty());
    return events().front().t;
}

Time LinkStream::last_time() const {
    NATSCALE_EXPECTS(!empty());
    return events().back().t;
}

LinkStream LinkStream::slice(Time from, Time to) const {
    NATSCALE_EXPECTS(from >= 0 && from < to && to <= period_end_);
    std::vector<Event> subset;
    for (const auto& e : events()) {
        if (e.t >= from && e.t < to) {
            subset.push_back({e.u, e.v, e.t - from});
        }
    }
    return LinkStream(std::move(subset), num_nodes_, to - from, directed_);
}

}  // namespace natscale

// LinkStream: a finite collection of (u, v, t) triplets over a period of
// study [0, T), the fundamental object of the paper.
//
// Events are stored sorted by time; the node set is the dense range [0, n).
// Time is measured in integer ticks of size `resolution` (1 second for every
// dataset used in the paper); see util/types.hpp for the continuous-time
// discussion.
//
// Storage lives behind an EventSource (linkstream/event_source.hpp): the
// classic constructors own a std::vector<Event>, while the natbin loader
// (linkstream/binary_io.hpp) wraps a memory-mapped file zero-copy, so every
// algorithm consuming the events() span works out-of-core unchanged.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linkstream/event.hpp"
#include "linkstream/event_source.hpp"
#include "util/types.hpp"

namespace natscale {

class LinkStream {
public:
    /// Builds a stream from an event list.
    ///
    /// Events are sorted; exact duplicates (same u, v, t) are kept — they are
    /// harmless because aggregation deduplicates edges per window — except
    /// when `dedup` is true.  `num_nodes` fixes the node universe (Definition
    /// 1 keeps V constant across snapshots); `period_end` is T, the exclusive
    /// end of the period of study.
    ///
    /// Preconditions: every endpoint < num_nodes, u != v, 0 <= t < period_end.
    LinkStream(std::vector<Event> events, NodeId num_nodes, Time period_end,
               bool directed = false, bool dedup = false);

    /// Wraps an externally validated source without copying or sorting: the
    /// zero-copy entry point of the mmap-backed natbin loader.  `source`
    /// must hold canonical events — (t, u, v)-sorted, endpoints in
    /// [0, num_nodes), u != v, u < v when undirected, timestamps in
    /// [0, period_end) — and `distinct_timestamps` must be their
    /// distinct-timestamp count; linkstream/binary_io performs exactly this
    /// validation in its sequential open pass.
    static LinkStream from_source(EventSource source, NodeId num_nodes, Time period_end,
                                  bool directed, std::size_t distinct_timestamps);

    /// All events, sorted by (t, u, v).
    std::span<const Event> events() const noexcept { return source_.events(); }

    /// The storage behind events(): in-memory or mmap-backed.  Sequential
    /// consumers use its paging hints to bound residency on mapped traces.
    const EventSource& source() const noexcept { return source_; }

    NodeId num_nodes() const noexcept { return num_nodes_; }
    std::size_t num_events() const noexcept { return source_.size(); }
    bool directed() const noexcept { return directed_; }

    /// T: the exclusive end of the period of study [0, T).
    Time period_end() const noexcept { return period_end_; }

    bool empty() const noexcept { return source_.size() == 0; }

    /// Number of distinct timestamps carrying at least one event.
    std::size_t num_distinct_timestamps() const noexcept { return distinct_timestamps_; }

    /// First / last event time.  Preconditions: !empty().
    Time first_time() const;
    Time last_time() const;

    /// Returns a copy restricted to events with t in [from, to).  The copy
    /// always owns its events, regardless of this stream's storage.
    LinkStream slice(Time from, Time to) const;

private:
    LinkStream() = default;

    EventSource source_;
    NodeId num_nodes_ = 0;
    Time period_end_ = 0;
    bool directed_ = false;
    std::size_t distinct_timestamps_ = 0;
};

}  // namespace natscale

// Shared test stream: the one shape on which select_backend picks dense for
// some aggregation periods of a stream and sparse for others.
#pragma once

#include <utility>
#include <vector>

#include "linkstream/link_stream.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/rng.hpp"

namespace natscale::testing {

/// kSparseMinNodes nodes and 1024 random pairs, each in contact 20 times
/// within one 200-tick burst: 10 events per node.  Periods of a few ticks
/// keep most contacts apart, above kSparseDensityLimit arcs per node, so
/// they resolve dense; from ~50 ticks on each burst folds into a few
/// windows and the periods resolve sparse.
inline LinkStream burst_pairs_stream() {
    Rng rng(73);
    const NodeId n = kSparseMinNodes;
    const Time period = 100'000;
    std::vector<Event> events;
    for (int pair = 0; pair < 1024; ++pair) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        const Time start = rng.uniform_int(0, period - 200);
        for (int contact = 0; contact < 20; ++contact) {
            events.push_back({u, v, start + rng.uniform_int(0, 199)});
        }
    }
    return LinkStream(std::move(events), n, period, false);
}

}  // namespace natscale::testing

#include "testing/brute_force.hpp"

#include <algorithm>
#include <map>

#include "util/contracts.hpp"

namespace natscale {

namespace {

/// Directed arcs of every snapshot (both directions when undirected).
std::vector<std::vector<Edge>> arcs_per_snapshot(const GraphSeries& series) {
    std::vector<std::vector<Edge>> arcs;
    arcs.reserve(series.snapshots().size());
    for (const auto& snap : series.snapshots()) {
        std::vector<Edge> a;
        for (const auto& [u, v] : snap.edges) {
            a.emplace_back(u, v);
            if (!series.directed()) a.emplace_back(v, u);
        }
        arcs.push_back(std::move(a));
    }
    return arcs;
}

}  // namespace

ArrivalTable forward_arrival_table(const GraphSeries& series) {
    const NodeId n = series.num_nodes();
    const WindowIndex K = series.num_windows();
    ArrivalTable table;
    table.n = n;
    table.K = K;
    table.arr.assign(static_cast<std::size_t>(K) * n * n, kInfiniteTime);
    table.hops.assign(static_cast<std::size_t>(K) * n * n, kInfiniteHops);

    const auto arcs = arcs_per_snapshot(series);
    const auto snapshots = series.snapshots();

    for (WindowIndex k = 1; k <= K; ++k) {
        for (NodeId src = 0; src < n; ++src) {
            // prefix_min[x]: minimum hops over recorded arrivals at x in
            // windows strictly before the window being processed (the source
            // itself is available from window k with 0 hops).
            std::vector<Hops> prefix_min(n, kInfiniteHops);
            std::vector<Time> first_arrival(n, kInfiniteTime);
            std::vector<Hops> hops_at_first(n, kInfiniteHops);
            prefix_min[src] = 0;

            std::vector<std::pair<NodeId, Hops>> updates;
            for (std::size_t s = 0; s < snapshots.size(); ++s) {
                const WindowIndex w = snapshots[s].k;
                if (w < k) continue;
                updates.clear();
                for (const auto& [x, y] : arcs[s]) {
                    if (prefix_min[x] == kInfiniteHops) continue;  // x not yet reached
                    updates.emplace_back(y, static_cast<Hops>(prefix_min[x] + 1));
                }
                // Apply after scanning the window: arrivals at w cannot feed
                // another hop at w (Remark 1: strictly increasing windows).
                for (const auto& [y, h] : updates) {
                    if (y == src) continue;
                    if (first_arrival[y] == kInfiniteTime) {
                        first_arrival[y] = w;
                        hops_at_first[y] = h;
                    } else if (first_arrival[y] == w) {
                        hops_at_first[y] = std::min(hops_at_first[y], h);
                    }
                }
                for (const auto& [y, h] : updates) {
                    if (y == src) continue;
                    prefix_min[y] = std::min(prefix_min[y], h);
                }
            }
            const std::size_t base = (static_cast<std::size_t>(k - 1) * n + src) * n;
            for (NodeId v = 0; v < n; ++v) {
                table.arr[base + v] = first_arrival[v];
                table.hops[base + v] = hops_at_first[v];
            }
        }
    }
    return table;
}

std::vector<MinimalTrip> minimal_trips_from_table(const ArrivalTable& table) {
    std::vector<MinimalTrip> trips;
    for (WindowIndex k = 1; k <= table.K; ++k) {
        for (NodeId u = 0; u < table.n; ++u) {
            for (NodeId v = 0; v < table.n; ++v) {
                if (u == v) continue;
                const Time a = table.arrival(k, u, v);
                if (a == kInfiniteTime) continue;
                const bool minimal = k == table.K || table.arrival(k + 1, u, v) > a;
                if (minimal) {
                    trips.push_back({u, v, k, a, table.hop_count(k, u, v)});
                }
            }
        }
    }
    return trips;
}

std::vector<TemporalPathRecord> enumerate_temporal_paths(const GraphSeries& series,
                                                         std::size_t max_paths) {
    const auto arcs = arcs_per_snapshot(series);
    const auto snapshots = series.snapshots();
    std::vector<TemporalPathRecord> paths;

    // Depth-first extension: a path ending at node `tail` whose last hop used
    // window index `last_w` extends with any arc from `tail` in a window
    // strictly after `last_w`.
    struct Frame {
        TemporalPathRecord record;
        NodeId tail;
        WindowIndex last_w;
    };
    std::vector<Frame> stack;
    for (std::size_t s = 0; s < snapshots.size(); ++s) {
        for (const auto& [x, y] : arcs[s]) {
            Frame f;
            f.record.hops = {{x, y}};
            f.record.times = {snapshots[s].k};
            f.tail = y;
            f.last_w = snapshots[s].k;
            stack.push_back(std::move(f));
        }
    }
    while (!stack.empty()) {
        Frame f = std::move(stack.back());
        stack.pop_back();
        paths.push_back(f.record);
        NATSCALE_CHECK(paths.size() <= max_paths);
        for (std::size_t s = 0; s < snapshots.size(); ++s) {
            if (snapshots[s].k <= f.last_w) continue;
            for (const auto& [x, y] : arcs[s]) {
                if (x != f.tail) continue;
                Frame g = f;
                g.record.hops.emplace_back(x, y);
                g.record.times.push_back(snapshots[s].k);
                g.tail = y;
                g.last_w = snapshots[s].k;
                stack.push_back(std::move(g));
            }
        }
    }
    return paths;
}

std::vector<MinimalTrip> exhaustive_minimal_trips(const GraphSeries& series) {
    const auto paths = enumerate_temporal_paths(series);

    // Group path intervals (dep, arr) and hop counts per ordered node pair.
    // intervals[(u,v)] -> map from (dep, arr) to min hops over paths with
    // exactly that departure and arrival window.
    std::map<std::pair<NodeId, NodeId>, std::map<std::pair<Time, Time>, Hops>> intervals;
    for (const auto& p : paths) {
        const NodeId u = p.hops.front().first;
        const NodeId v = p.hops.back().second;
        if (u == v) continue;
        const Time dep = p.times.front();
        const Time arr = p.times.back();
        auto& per_pair = intervals[{u, v}];
        const auto h = static_cast<Hops>(p.hops.size());
        auto [it, inserted] = per_pair.try_emplace({dep, arr}, h);
        if (!inserted) it->second = std::min(it->second, h);
    }

    // A trip interval is minimal iff no other interval of the same pair is
    // strictly included in it (Definition 5).
    std::vector<MinimalTrip> trips;
    for (const auto& [pair, per_pair] : intervals) {
        for (const auto& [interval, hop_count] : per_pair) {
            const auto [dep, arr] = interval;
            bool minimal = true;
            for (const auto& [other, ignored] : per_pair) {
                (void)ignored;
                const auto [d2, a2] = other;
                const bool included = d2 >= dep && a2 <= arr;
                const bool strict = included && (d2 != dep || a2 != arr);
                if (strict) {
                    minimal = false;
                    break;
                }
            }
            if (minimal) trips.push_back({pair.first, pair.second, dep, arr, hop_count});
        }
    }
    std::sort(trips.begin(), trips.end(), [](const MinimalTrip& a, const MinimalTrip& b) {
        return std::tie(a.u, a.v, a.dep, a.arr) < std::tie(b.u, b.v, b.dep, b.arr);
    });
    return trips;
}

}  // namespace natscale

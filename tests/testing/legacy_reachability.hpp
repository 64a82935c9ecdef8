// The pre-packed scalar reachability kernel, kept verbatim as the reference
// implementation the packed engine (temporal/reachability.hpp) is tested
// against.
//
// State layout: two parallel n x n tables (Time arr + Hops hops, 12 B per
// ordered pair) relaxed with a branchy two-field lexicographic compare.  The
// packed engine replaced this with a single 8 B `(arrival rank << 32) | hops`
// word per pair and a branchless unsigned min; both emit the exact same
// minimal-trip sequence.  Only the differential tests include it
// (test_packed_reachability, test_scan_parallel); production code paths go
// through TemporalReachability / ReachabilityEngine.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability.hpp"
#include "util/contracts.hpp"
#include "util/types.hpp"

namespace natscale {

/// The 12 B/pair scalar sweep engine: same contract and same emission order
/// as TemporalReachability, including distance accumulation in series
/// scans.
class LegacyTemporalReachability {
public:
    template <typename Sink>
    void scan_series(const GraphSeries& series, Sink&& sink,
                     const ReachabilityOptions& options = {}) {
        prepare(series.num_nodes());
        if (options.distances != nullptr) {
            options.distances->begin(series.num_nodes(), series.num_windows());
        }
        const auto snapshots = series.snapshots();
        for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
            detail::build_instant_arcs(arcs_, it->edges, series.directed());
            process_instant(it->k, sink, options);
        }
        if (options.distances != nullptr) close_distances(*options.distances);
    }

    Time arrival(NodeId u, NodeId v) const {
        NATSCALE_EXPECTS(u < n_ && v < n_);
        return arr_[static_cast<std::size_t>(u) * n_ + v];
    }
    Hops hop_count(NodeId u, NodeId v) const {
        NATSCALE_EXPECTS(u < n_ && v < n_);
        return hops_[static_cast<std::size_t>(u) * n_ + v];
    }

private:
    /// Closes every finite pair from the final tables, row-major, as the
    /// packed kernel does from its packed cells.
    void close_distances(DistanceAccumulator& distances) const {
        for (NodeId u = 0; u < n_; ++u) {
            for (NodeId v = 0; v < n_; ++v) {
                const std::size_t idx = static_cast<std::size_t>(u) * n_ + v;
                if (v == u || arr_[idx] == kInfiniteTime) continue;
                distances.close_pair(u, v, arr_[idx], hops_[idx]);
            }
        }
    }

    void prepare(NodeId n) {
        n_ = n;
        const std::size_t cells = static_cast<std::size_t>(n) * n;
        arr_.assign(cells, kInfiniteTime);
        hops_.assign(cells, kInfiniteHops);
        if (slot_.size() < n) slot_.assign(n, -1);
        std::fill(slot_.begin(), slot_.end(), -1);
        active_.clear();
    }

    template <typename Sink>
    void process_instant(Time label, Sink& sink, const ReachabilityOptions& options) {
        const std::size_t n = n_;

        // 1. Assign scratch slots to every node touched at this instant.
        active_.clear();
        auto ensure_slot = [&](NodeId x) {
            if (slot_[x] < 0) {
                slot_[x] = static_cast<std::int32_t>(active_.size());
                active_.push_back(x);
            }
        };
        for (const auto& [src, dst] : arcs_) {
            ensure_slot(src);
            ensure_slot(dst);
        }

        // 2. Snapshot the pre-instant rows of all touched nodes: continuations
        //    must use the state of departures strictly after this instant.
        if (scratch_arr_.size() < active_.size() * n) {
            scratch_arr_.resize(active_.size() * n);
            scratch_hops_.resize(active_.size() * n);
        }
        for (std::size_t s = 0; s < active_.size(); ++s) {
            const std::size_t row = static_cast<std::size_t>(active_[s]) * n;
            std::memcpy(&scratch_arr_[s * n], &arr_[row], n * sizeof(Time));
            std::memcpy(&scratch_hops_[s * n], &hops_[row], n * sizeof(Hops));
        }

        // 3. Relax each source's arcs against the scratch state.
        std::size_t i = 0;
        while (i < arcs_.size()) {
            const NodeId u = arcs_[i].first;
            Time* row_a = &arr_[static_cast<std::size_t>(u) * n];
            Hops* row_h = &hops_[static_cast<std::size_t>(u) * n];
            for (; i < arcs_.size() && arcs_[i].first == u; ++i) {
                const NodeId w = arcs_[i].second;
                // Direct hop u -> w at this instant.
                if (label < row_a[w] || (label == row_a[w] && row_h[w] > 1)) {
                    row_a[w] = label;
                    row_h[w] = 1;
                }
                // Continuations u -> w (now) -> ... -> v (later).
                Time* wa = &scratch_arr_[static_cast<std::size_t>(slot_[w]) * n];
                Hops* wh = &scratch_hops_[static_cast<std::size_t>(slot_[w]) * n];
                const Time saved = wa[u];
                wa[u] = kInfiniteTime;  // never relax the diagonal pair (u, u)
                for (std::size_t v = 0; v < n; ++v) {
                    const Time a = wa[v];
                    if (a == kInfiniteTime) continue;
                    const Hops h = static_cast<Hops>(wh[v] + 1);
                    if (a < row_a[v] || (a == row_a[v] && h < row_h[v])) {
                        row_a[v] = a;
                        row_h[v] = h;
                    }
                }
                wa[u] = saved;
            }

            // 4. Every strict arrival improvement is a minimal trip departing at
            //    this instant; any value change feeds the distance accumulator.
            const Time* old_a = &scratch_arr_[static_cast<std::size_t>(slot_[u]) * n];
            const Hops* old_h = &scratch_hops_[static_cast<std::size_t>(slot_[u]) * n];
            for (std::size_t v = 0; v < n; ++v) {
                if (row_a[v] == old_a[v] &&
                    (row_a[v] == kInfiniteTime || row_h[v] == old_h[v])) {
                    continue;
                }
                if (options.distances != nullptr) {
                    options.distances->record_change(u, static_cast<NodeId>(v), label,
                                                     old_a[v], old_h[v]);
                }
                if (row_a[v] < old_a[v]) {
                    sink(MinimalTrip{u, static_cast<NodeId>(v), label, row_a[v], row_h[v]});
                }
            }
        }

        // 5. Release scratch slots.
        for (NodeId x : active_) slot_[x] = -1;
    }

    NodeId n_ = 0;
    std::vector<Time> arr_;
    std::vector<Hops> hops_;
    std::vector<Time> scratch_arr_;
    std::vector<Hops> scratch_hops_;
    std::vector<std::int32_t> slot_;
    std::vector<NodeId> active_;
    std::vector<Edge> arcs_;
};

}  // namespace natscale

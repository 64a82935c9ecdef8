// Row-sparse temporal reachability: the same backward minimal-trip sweep as
// temporal/reachability.hpp, with per-source state stored as sorted runs of
// (v, arrival, hops) entries instead of two dense n x n tables.
//
// The dense engine costs n^2 x 8 bytes (packed state) regardless of how much
// of the state is actually reachable; with one engine cloned per worker
// thread that is `threads x n^2 x 8 B`, which at n = 200k is ~320 GB per
// worker.  Real
// contact and communication streams are extremely sparse, and at the small
// aggregation periods where the saturation search spends most of its grid
// points the reachable set of each source is tiny — so this backend stores
// exactly the finite entries, bounded by the number of reachable ordered
// pairs, and relaxes by merging sorted runs instead of scanning `v = 0..n`.
//
// Equivalence with the dense backend (bit-for-bit, not just multiset):
//   * both relax the identical deduplicated (source, target)-sorted arc
//     sequence per instant (detail::build_instant_arcs);
//   * the post-instant row of a source u is the pointwise lexicographic
//     minimum over {pre-instant row, direct candidates (w, label, 1),
//     continuation candidates (v, arr_old[w][v], hops_old[w][v] + 1)} —
//     an order-independent quantity, computed here by one sorted merge and
//     in the dense engine by in-place relaxation;
//   * minimal trips are emitted per source in increasing u (arc order) and,
//     within a source, in increasing v (merge order == dense's v = 0..n
//     emission loop), so every sink observes the identical trip sequence and
//     every float accumulation (histogram moments, Kahan sums) is performed
//     in the identical order.
//
// The scans take no ReachabilityOptions.  Distance accumulation keeps an
// n^2 table of its own, which defeats the point, so backend selection routes
// distance-accumulating scans to the dense engine (see
// temporal/reachability_backend.hpp).  Like the dense engine, every scan
// emits every minimal trip.
//
// Unlike the dense engine, this kernel calls no runtime-dispatched SIMD op
// (util/simd.hpp): its candidate generation is a plain loop, since a
// vectorized copy measured within the runs' spread on sparse scans
// (docs/simd.md, "Benchmarks").
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability.hpp"
#include "util/contracts.hpp"
#include "util/types.hpp"

namespace natscale {

class SparseTemporalReachability {
public:
    /// One finite reachability value: from the current row's source, the
    /// earliest arrival at `v` (over departures at or after the instant
    /// being processed) is `arr`, with `hops` minimum hops among
    /// earliest-arrival paths.
    using Entry = ReachEntry;

    /// Per-source state: finite entries sorted by v — the kernel-independent
    /// rows of temporal/reachability.hpp, stored as they are.  Exposed (with
    /// state_rows / restore_state below) so the online engine's checkpoints
    /// can serialize a sweep mid-stream and resume it bit-identically.
    using Row = ReachRow;

    /// Enumerates all minimal trips of the series; same contract and same
    /// emission order as TemporalReachability::scan_series.
    template <typename Sink>
    void scan_series(const GraphSeries& series, Sink&& sink);

    // --- resumable (instant-at-a-time) form ---------------------------------
    //
    // The batch scan above is one closed sweep.  The entry points
    // below expose the identical sweep one instant at a time, which is what
    // makes the state reusable across calls: a caller may process a range of
    // instants, keep the engine (it is cheaply copyable — plain vectors),
    // and later continue with earlier instants.  The online subsystem
    // (src/online) drives the forward incremental sweep through this API,
    // via ReachabilityEngine::relax_window, by feeding time-REVERSED
    // instants: processing reversed labels in the decreasing order this
    // engine requires is a forward pass over the original stream, so
    // appending events extends the state instead of invalidating it.  The
    // dense engine has the same form (TemporalReachability::relax_window).

    /// Resets the sweep state for a node universe of size n.  Must be called
    /// before the first relax_instant of a sweep (scan_series calls it
    /// internally).
    void begin(NodeId n) { prepare(n); }

    /// Relaxes one instant: `edges` are the (possibly duplicated,
    /// arbitrarily ordered) links occurring at `label`, deduplicated and
    /// direction-expanded exactly as scan_series does
    /// (detail::build_instant_arcs), then processed by the unchanged kernel.
    /// Instants must be fed in strictly decreasing label order within one
    /// begin()/restore_state() session; trips are emitted exactly as
    /// scan_series emits them.
    template <typename Sink>
    void relax_instant(std::span<const Edge> edges, bool directed, Time label, Sink&& sink) {
        detail::build_instant_arcs(arcs_, edges, directed);
        process_instant(label, sink);
    }

    /// The whole sweep state, row per source.  With the entries of each row
    /// restored verbatim, a sweep continues bit-identically — the
    /// serialization surface of online/checkpoint.
    const std::vector<Row>& state_rows() const noexcept { return rows_; }

    /// Restores a state previously read back from state_rows().
    /// Preconditions: rows.size() == n; every row sorted by strictly
    /// increasing v with v < n.
    void restore_state(NodeId n, std::vector<Row> rows);

private:
    void prepare(NodeId n);

    template <typename Sink>
    void process_instant(Time label, Sink& sink);

    NodeId n_ = 0;
    std::vector<Row> rows_;        // per-source sorted-by-v finite entries
    std::vector<Row> snapshot_;    // pre-instant copies of the active rows
    std::vector<std::int32_t> slot_;  // node -> snapshot slot, -1 when inactive
    std::vector<NodeId> active_;   // nodes with a snapshot slot this instant
    std::vector<Edge> arcs_;       // current instant, sorted by source
    std::vector<Entry> candidates_;  // merge scratch, one source at a time
    Row merged_;                   // merge output scratch
};

// --- implementation --------------------------------------------------------

template <typename Sink>
void SparseTemporalReachability::scan_series(const GraphSeries& series, Sink&& sink) {
    prepare(series.num_nodes());
    const auto snapshots = series.snapshots();
    for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
        detail::build_instant_arcs(arcs_, it->edges, series.directed());
        process_instant(it->k, sink);
    }
}

template <typename Sink>
void SparseTemporalReachability::process_instant(Time label, Sink& sink) {
    // 1. Assign snapshot slots to every node touched at this instant.
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
    if (snapshot_.size() < active_.size()) snapshot_.resize(active_.size());
    for (std::size_t s = 0; s < active_.size(); ++s) {
        const Row& row = rows_[active_[s]];
        snapshot_[s].assign(row.begin(), row.end());
    }

    // 3. One sorted merge per source: old row vs. all candidates.
    // Appends the entries of [first, last) to candidates_ one hop longer —
    // the continuation candidates of one neighbor row.
    const auto append_bumped = [&](Row::const_iterator first, Row::const_iterator last) {
        for (; first != last; ++first) {
            candidates_.push_back(Entry{first->v, first->hops + 1, first->arr});
        }
    };
    std::size_t i = 0;
    while (i < arcs_.size()) {
        const NodeId u = arcs_[i].first;

        candidates_.clear();
        for (; i < arcs_.size() && arcs_[i].first == u; ++i) {
            const NodeId w = arcs_[i].second;
            // Direct hop u -> w at this instant.
            candidates_.push_back(Entry{w, 1, label});
            // Continuations u -> w (now) -> ... -> v (later), v != u: the
            // neighbor row split around the diagonal entry (rows are sorted
            // by v, so one lower_bound finds it).
            const Row& wrow = snapshot_[static_cast<std::size_t>(slot_[w])];
            const auto diag = std::lower_bound(
                wrow.begin(), wrow.end(), u,
                [](const Entry& e, NodeId x) { return e.v < x; });
            append_bumped(wrow.begin(), diag);
            append_bumped((diag != wrow.end() && diag->v == u) ? diag + 1 : diag, wrow.end());
        }
        // Lexicographic (v, arr, hops): after the sort the first candidate of
        // each v is the pointwise-best one, exactly the value the dense
        // engine's in-place min-relaxation converges to.
        std::sort(candidates_.begin(), candidates_.end(),
                  [](const Entry& a, const Entry& b) {
                      if (a.v != b.v) return a.v < b.v;
                      if (a.arr != b.arr) return a.arr < b.arr;
                      return a.hops < b.hops;
                  });

        // 4. Merge with the pre-instant row; both runs are sorted by v, and
        //    the walk emits strict arrival improvements in increasing v —
        //    the dense engine's `for v = 0..n` emission order.
        const Row& old_row = snapshot_[static_cast<std::size_t>(slot_[u])];
        merged_.clear();
        std::size_t oi = 0;
        std::size_t ci = 0;
        while (oi < old_row.size() || ci < candidates_.size()) {
            if (ci >= candidates_.size() ||
                (oi < old_row.size() && old_row[oi].v < candidates_[ci].v)) {
                merged_.push_back(old_row[oi++]);
                continue;
            }
            const Entry best = candidates_[ci];
            while (ci < candidates_.size() && candidates_[ci].v == best.v) ++ci;

            if (oi < old_row.size() && old_row[oi].v == best.v) {
                const Entry old = old_row[oi++];
                const bool improves =
                    best.arr < old.arr || (best.arr == old.arr && best.hops < old.hops);
                merged_.push_back(improves ? best : old);
                if (best.arr < old.arr) {
                    sink(MinimalTrip{u, best.v, label, best.arr, best.hops});
                }
            } else {
                // Previously unreachable pair: always a strict improvement.
                merged_.push_back(best);
                sink(MinimalTrip{u, best.v, label, best.arr, best.hops});
            }
        }
        rows_[u].swap(merged_);
    }

    // 5. Release snapshot slots.
    for (NodeId x : active_) slot_[x] = -1;
}

}  // namespace natscale

// Temporal reachability: the backward dynamic program of the paper
// (Section 5) that enumerates all minimal trips of a graph series in O(nM)
// time, where n is the number of nodes and M the total number of edges over
// all snapshots.
//
// Every batch scan is a series scan, and trips carry window indices.  A
// link stream is scanned as its Delta = 1 series: window k holds exactly
// the events at t = k - 1 (Definition 1), so the stream analyses
// (temporal/transitions, temporal/trip_store, temporal/reachability_stats)
// aggregate at Delta = 1 and translate back to timestamps themselves.
//
// The sweep processes event times in decreasing order.  Its state after
// processing time k+1 is, for every ordered pair (u, v):
//
//     arr[u][v]  = earliest arrival among temporal paths u -> v departing
//                  at time >= k+1 (kInfiniteTime if none), and
//     hops[u][v] = minimum hop count among such earliest-arrival paths.
//
// Processing time k relaxes every link (u, w) occurring at k:
//     - the direct candidate (arrival k, 1 hop) for pair (u, w), and
//     - for every v, the continuation candidate
//       (arr_old[w][v], hops_old[w][v] + 1),
// where arr_old is the state before time k (a temporal path cannot take two
// links at the same time — Remark 1 — so the continuation must depart at or
// after k+1).  Ties in arrival are broken towards fewer hops.
//
// A trip (u, v, k, a) is minimal exactly when delaying the departure past k
// strictly increases the earliest arrival, i.e. when the relaxation at k
// strictly improves arr[u][v]; the sweep therefore emits one MinimalTrip per
// strict improvement.  This yields every minimal trip of the input exactly
// once.
//
// --- Packed lexicographic state --------------------------------------------
//
// The (arrival, hops) pair of each cell is packed into one 64-bit word:
//
//     packed = (arrival_rank << 32) | hops
//
// where arrival_rank is the snapshot index of the arrival window: the window
// indices of the non-empty snapshots are rank-compressed, so however far
// apart they lie, a rank fits 32 bits.  Ranks preserve the time order,
// so the tie-toward-fewer-hops relaxation "(a < A) || (a == A && h < H)"
// becomes a single branchless unsigned min of packed words, which the
// compiler turns into cmov/SIMD instead of a branchy two-field compare over
// 12 B/pair (the pre-packed kernel, kept as a test reference in
// tests/testing/legacy_reachability.hpp).  The unreachable
// sentinel is (0xFFFFFFFF << 32) | 0: adding the +1 hop of a continuation
// keeps it larger than every reachable value, so no masking is needed in
// the inner loop.  Ranks are mapped back to original labels on trip
// emission and on the one walk over the finite cells (for_each_finite),
// which both state_rows() and the distance accumulator's close read.
// State cost drops from 12 B to 8 B per pair, which also raises the dense
// backend's node ceiling under the fixed memory budget by ~22 % (see
// temporal/reachability_backend.hpp).
//
// The same sweep optionally drives a DistanceAccumulator (mean d_time /
// d_hops over all start windows, Fig. 2).  Every scan emits every minimal
// trip; a sink that wants a subset filters its own (the pair sampling of the
// elongation validation, temporal/trip_store.hpp).
//
// --- Resumable time-reversed form ------------------------------------------
//
// The online engine (src/online) runs the sweep forward by feeding the
// windows of a growing stream time-REVERSED, one at a time: window k is the
// instant labelled -k, so the windows arrive in the decreasing label order
// the backward kernel requires.  Its label set is neither known nor finite,
// so instead of ranking it, window k takes arrival rank 0xFFFFFFFF - k.  A
// later window has a smaller label and a smaller rank, so ranks stay
// monotone as windows are appended, and rank r decodes arithmetically back
// to label r - 0xFFFFFFFF, with no label table to grow or copy.  Windows
// 1 .. 2^32 - 2 (kMaxReversedWindow) take ranks 2^32 - 2 .. 1, below the
// unreachable rank; the caller moves a sweep that reaches window 2^32 - 1
// to the sparse backend (ReachabilityEngine::relax_window does).  The state
// leaves and re-enters the kernel as sorted (v, hops, arr) rows, the form
// the sparse backend keeps natively: state_rows() / restore_state().
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "temporal/distance_stats.hpp"
#include "temporal/minimal_trip.hpp"
#include "util/contracts.hpp"
#include "util/simd.hpp"
#include "util/types.hpp"

namespace natscale {

/// Storage strategy of a reachability scan, as picked by select_backend
/// (temporal/reachability_backend.hpp).  The dense backend keeps one
/// packed n x n table (n^2 x 8 bytes); the sparse backend keeps one sorted
/// run of (v, arrival, hops) entries per source, bounded by the number of
/// reachable ordered pairs.  Both emit the exact same minimal trips in the
/// exact same order (see temporal/sparse_reachability.hpp for the
/// equivalence argument).
enum class ReachabilityBackend {
    dense,   ///< packed n x n table — fastest for small/dense node sets
    sparse,  ///< per-source sorted runs — required for large sparse n
};

struct ReachabilityOptions {
    /// If non-null, fed with every value change so that mean d_time/d_hops
    /// over all (u, v, t) can be computed exactly.  Only the dense kernel
    /// takes options (the sparse kernel takes none).
    DistanceAccumulator* distances = nullptr;
};

/// One finite cell of a sweep state: from its row's source, the earliest
/// arrival at `v` over the departures processed so far is `arr`, reached
/// with `hops` minimum hops.  A vector of rows (one per source, entries
/// sorted by strictly increasing v) is the kernel-independent form of a
/// resumable sweep's state: the sparse backend stores exactly these rows,
/// the dense one exports and restores them, and online/checkpoint
/// serializes them.
struct ReachEntry {
    NodeId v = 0;
    Hops hops = 0;
    Time arr = 0;

    friend constexpr bool operator==(const ReachEntry&, const ReachEntry&) = default;
};
using ReachRow = std::vector<ReachEntry>;

namespace detail {

/// Deduplicated directed arcs of one instant, sorted by (source, target);
/// shared by the dense and sparse sweep backends so both relax the exact
/// same arc sequence.
void build_instant_arcs(std::vector<Edge>& arcs, std::span<const Edge> edges, bool directed);

}  // namespace detail

/// Reusable sweep engine over the packed state.  Construction is cheap; the
/// O(n^2) state is allocated on first use and reused across scans (the
/// occupancy method runs one scan per aggregation period on the same node
/// set, and scan_periods reuses one engine per pool worker).
class TemporalReachability {
public:
    /// One packed (arrival_rank, hops) cell; exposed so the backend-budget
    /// arithmetic (temporal/reachability_backend.hpp) and the benches can
    /// name the per-pair state cost.
    using PackedState = std::uint64_t;

    /// Enumerates all minimal trips of the series, in decreasing order of
    /// departure window.  `sink` is invoked as sink(const MinimalTrip&) with
    /// dep/arr being 1-based window indices.
    template <typename Sink>
    void scan_series(const GraphSeries& series, Sink&& sink,
                     const ReachabilityOptions& options = {});

    // --- resumable time-reversed form (see the file comment) ----------------

    /// Largest window index relax_window accepts.
    static constexpr WindowIndex kMaxReversedWindow = 0xFFFFFFFE;

    /// Resets the state for a reversed sweep over n nodes.  Must be called
    /// before the first relax_window of a sweep.
    void begin(NodeId n);

    /// Relaxes window k of the time-reversed sweep: `edges` are the
    /// (possibly duplicated, arbitrarily ordered) links of the instant
    /// labelled -k, deduplicated and direction-expanded as the batch scans
    /// do.  Emits exactly the trips, in exactly the order, that
    /// SparseTemporalReachability::relax_instant(edges, directed, -k, sink)
    /// emits from the same state.  Preconditions: begin() or restore_state()
    /// first; 1 <= k <= kMaxReversedWindow; k strictly increasing within
    /// one session.
    template <typename Sink>
    void relax_window(std::span<const Edge> edges, bool directed, WindowIndex k, Sink&& sink) {
        NATSCALE_EXPECTS(reversed_ && k >= 1 && k <= kMaxReversedWindow);
        detail::build_instant_arcs(arcs_, edges, directed);
        process_instant<true>(static_cast<std::uint32_t>(kUnreachableRank - k), -k, sink, {});
    }

    /// The finite cells, decoded: row u lists (v, hops, arr) for every v
    /// reachable from u, in increasing v — after the same instants (batch
    /// or reversed), exactly SparseTemporalReachability::state_rows().
    std::vector<ReachRow> state_rows() const;

    /// True when every arrival of `rows` is the label of a window the
    /// reversed form can rank: -kMaxReversedWindow <= arr <= -1.
    static bool fits_reversed(const std::vector<ReachRow>& rows);

    /// Packs rows (state_rows() of either backend) as the state of a
    /// reversed sweep, which then continues bit-identically.
    /// Preconditions: rows.size() == n; every row sorted by strictly
    /// increasing v with v < n; fits_reversed(rows).
    void restore_state(NodeId n, const std::vector<ReachRow>& rows);

    /// Frees the pre-instant row copies kept between instants, which reach
    /// the size of the table itself on an instant that touches every node.
    /// The state is kept.  For callers that hold many engines at once (the
    /// online engine holds one per grid period).
    void release_scratch() { std::vector<PackedState>().swap(scratch_); }

private:
    static constexpr std::uint32_t kUnreachableRank = 0xFFFFFFFFu;
    /// arrival rank 0xFFFFFFFF, hops 0: larger than every reachable packed
    /// value, and still larger after the +1 hop of a continuation candidate.
    static constexpr PackedState kUnreachablePacked =
        static_cast<PackedState>(kUnreachableRank) << 32;

    /// Label of arrival rank `rank` in the reversed form: -(window index).
    static constexpr Time reversed_label(std::uint32_t rank) {
        return static_cast<Time>(rank) - static_cast<Time>(kUnreachableRank);
    }

    /// Label of a reachable rank, in whichever form ran last.
    Time label_of(std::uint32_t rank) const {
        return reversed_ ? reversed_label(rank) : labels_[rank];
    }

    void prepare(NodeId n);

    /// Relaxes the arcs_ of one instant.  Arrival ranks decode back to
    /// labels through labels_ in the batch scan, arithmetically in the
    /// `Reversed` form.
    template <bool Reversed, typename Sink>
    void process_instant(std::uint32_t rank, Time label, Sink& sink,
                         const ReachabilityOptions& options);

    /// Calls visit(u, v, arr, hops) for every finite cell in row-major
    /// order (u, then increasing v): the one decode of the packed table.
    template <typename Visit>
    void for_each_finite(Visit&& visit) const;

    NodeId n_ = 0;
    bool reversed_ = false;             // ranks decode arithmetically, not via labels_
    std::vector<PackedState> state_;    // n_ rows x n_ columns
    std::vector<PackedState> scratch_;  // pre-instant rows of active nodes
    std::vector<std::uint64_t> improved_;  // step 4, one bit per column: rank dropped
    std::vector<std::uint64_t> changed_;   // step 4, one bit per column: cell changed
    std::vector<Time> labels_;          // rank -> original instant label
    std::vector<std::int32_t> slot_;    // node -> scratch slot, -1 when inactive
    std::vector<NodeId> active_;        // nodes with a scratch slot this instant
    std::vector<Edge> arcs_;            // current instant, sorted by source
};

// --- implementation --------------------------------------------------------

template <typename Sink>
void TemporalReachability::scan_series(const GraphSeries& series, Sink&& sink,
                                       const ReachabilityOptions& options) {
    prepare(series.num_nodes());
    const auto snapshots = series.snapshots();
    NATSCALE_EXPECTS(snapshots.size() < kUnreachableRank);
    labels_.resize(snapshots.size());
    for (std::size_t i = 0; i < snapshots.size(); ++i) labels_[i] = snapshots[i].k;
    if (options.distances != nullptr) {
        options.distances->begin(series.num_nodes(), series.num_windows());
    }
    for (std::size_t i = snapshots.size(); i-- > 0;) {
        detail::build_instant_arcs(arcs_, snapshots[i].edges, series.directed());
        process_instant<false>(static_cast<std::uint32_t>(i), snapshots[i].k, sink, options);
    }
    if (options.distances != nullptr) {
        for_each_finite([&options](NodeId u, NodeId v, Time arr, Hops hops) {
            options.distances->close_pair(u, v, arr, hops);
        });
    }
}

template <typename Visit>
void TemporalReachability::for_each_finite(Visit&& visit) const {
    for (NodeId u = 0; u < n_; ++u) {
        const PackedState* cells = state_.data() + static_cast<std::size_t>(u) * n_;
        for (NodeId v = 0; v < n_; ++v) {
            const auto rank = static_cast<std::uint32_t>(cells[v] >> 32);
            if (rank == kUnreachableRank) continue;
            visit(u, v, label_of(rank), static_cast<Hops>(static_cast<std::uint32_t>(cells[v])));
        }
    }
}

template <bool Reversed, typename Sink>
void TemporalReachability::process_instant(std::uint32_t rank, Time label, Sink& sink,
                                           const ReachabilityOptions& options) {
    const auto decode = [this](std::uint32_t arrival_rank) {
        if constexpr (Reversed) {
            return reversed_label(arrival_rank);
        } else {
            return labels_[arrival_rank];
        }
    };
    const std::size_t width = n_;  // cells per row
    // The SIMD dispatch of steps 3 and 4, resolved once per instant (the ISA
    // cannot change mid-scan; see util/simd.hpp).
    const simd::Ops& vec = simd::ops();

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
    if (scratch_.size() < active_.size() * width) {
        scratch_.resize(active_.size() * width);
    }
    for (std::size_t s = 0; s < active_.size(); ++s) {
        std::memcpy(&scratch_[s * width], &state_[active_[s] * width],
                    width * sizeof(PackedState));
    }

    // 3. Relax each source's arcs against the scratch state.
    const PackedState direct = (static_cast<PackedState>(rank) << 32) | 1u;
    std::size_t i = 0;
    while (i < arcs_.size()) {
        const NodeId u = arcs_[i].first;
        PackedState* row = &state_[static_cast<std::size_t>(u) * width];
        for (; i < arcs_.size() && arcs_[i].first == u; ++i) {
            const NodeId w = arcs_[i].second;
            // Direct hop u -> w at this instant: (rank, 1) wins every tie by
            // hops, exactly the legacy two-field compare.
            PackedState& cell = row[w];
            cell = cell < direct ? cell : direct;
            // Continuations u -> w (now) -> ... -> v (later): +1 in the low
            // 32 bits is +1 hop at unchanged arrival, and the unreachable
            // sentinel stays losing, so the whole relaxation is one
            // branchless min per cell — dispatched to the active SIMD path
            // (bit-identical to the scalar loop; pure unsigned integer min).
            PackedState* wrow = &scratch_[static_cast<std::size_t>(slot_[w]) * width];
            // Never relax the diagonal pair (u, u).
            const PackedState saved = wrow[u];
            wrow[u] = kUnreachablePacked;
            vec.packed_min_add1(row, wrow, width);
            wrow[u] = saved;
        }

        // 4. Every strict arrival improvement is a minimal trip departing at
        //    this instant; any value change feeds the distance accumulator.
        //    One dispatched pass compares the relaxed row with its
        //    pre-instant copy and marks both kinds of cell, 64 columns per
        //    word (bit v is column v); the set bits are then walked in
        //    increasing v.
        const PackedState* old_row = &scratch_[static_cast<std::size_t>(slot_[u]) * width];
        vec.diff_masks(row, old_row, width, improved_.data(), changed_.data());
        const std::uint64_t* walk = options.distances != nullptr ? changed_.data()
                                                                 : improved_.data();
        for (std::size_t word = 0; word * 64 < width; ++word) {
            const std::uint64_t improved = improved_[word];
            for (std::uint64_t bits = walk[word]; bits != 0; bits &= bits - 1) {
                const auto bit = static_cast<unsigned>(__builtin_ctzll(bits));
                const auto v = static_cast<NodeId>(word * 64 + bit);
                if (options.distances != nullptr) {
                    const PackedState before = old_row[v];
                    const auto old_rank = static_cast<std::uint32_t>(before >> 32);
                    const Time old_arr =
                        old_rank == kUnreachableRank ? kInfiniteTime : decode(old_rank);
                    const Hops old_hops =
                        old_rank == kUnreachableRank
                            ? kInfiniteHops
                            : static_cast<Hops>(static_cast<std::uint32_t>(before));
                    options.distances->record_change(u, v, label, old_arr, old_hops);
                }
                if ((improved >> bit) & 1u) {
                    const PackedState now = row[v];
                    sink(MinimalTrip{u, v, label, decode(static_cast<std::uint32_t>(now >> 32)),
                                     static_cast<Hops>(static_cast<std::uint32_t>(now))});
                }
            }
        }
    }

    // 5. Release scratch slots.
    for (NodeId x : active_) slot_[x] = -1;
}

}  // namespace natscale

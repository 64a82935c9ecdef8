// Temporal reachability: the backward dynamic program of the paper
// (Section 5) that enumerates all minimal trips of a graph series or link
// stream in O(nM) time, where n is the number of nodes and M the total
// number of edges over all snapshots.
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
// where arrival_rank is the index of the arrival instant in the increasing
// sequence of instant labels (window indices in series mode, distinct
// timestamps in stream mode — both rank-compressed the same way, so
// arbitrary int64 timestamps cost nothing).  Ranks preserve the time order,
// so the tie-toward-fewer-hops relaxation "(a < A) || (a == A && h < H)"
// becomes a single branchless unsigned min of packed words, which the
// compiler turns into cmov/SIMD instead of the branchy 12 B/pair compare of
// the legacy kernel (temporal/legacy_reachability.hpp).  The unreachable
// sentinel is (0xFFFFFFFF << 32) | 0: adding the +1 hop of a continuation
// keeps it larger than every reachable value, so no masking is needed in
// the inner loop.  Ranks are mapped back to original labels on trip
// emission, in the accessors, and when feeding the distance accumulator.
// State cost drops from 12 B to 8 B per pair, which also raises the dense
// backend's node ceiling under the fixed memory budget by ~22 % (see
// temporal/reachability_backend.hpp).
//
// --- Column-restricted scans -----------------------------------------------
//
// The DP decomposes exactly by destination column: cell (u, v) is only ever
// written from cell (w, v) of a neighbor row (continuation) or by the direct
// candidate for column w — never from another column.  scan_*_columns()
// therefore runs the identical sweep restricted to destinations in
// [col_begin, col_end) using n x width state, and the union of the
// restricted scans over a partition of [0, n) produces the exact same trip
// multiset, per-pair trip sequences, and final state as one full scan.
// temporal/column_shards.hpp fixes the partition as a function of n alone,
// and the callers fan the shards out over a util/thread_pool: intra-scan
// parallelism with bit-identical results at every thread count (the sample
// accumulators downstream are split-invariant — see stats/histogram01.hpp).
//
// The same sweep optionally drives a DistanceAccumulator (mean d_time /
// d_hops over all start windows, Fig. 2) and supports deterministic pair
// sampling for the expensive elongation validation of Section 8.
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "linkstream/link_stream.hpp"
#include "temporal/distance_stats.hpp"
#include "temporal/minimal_trip.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
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
    /// over all (u, v, t) can be computed exactly.  Series mode only, full
    /// column range only.
    DistanceAccumulator* distances = nullptr;

    /// Deterministic pair sampling: minimal trips of ordered pair (u, v) are
    /// reported only when hash64(u * n + v) % pair_sample_divisor == 0.
    /// 1 (default) reports every trip.  Sampling selects whole pairs, so the
    /// per-pair trip structure needed by the elongation measure is preserved.
    std::uint64_t pair_sample_divisor = 1;
};

namespace detail {

/// Deduplicated directed arcs of one instant, sorted by (source, target);
/// shared by the dense and sparse sweep backends so both relax the exact
/// same arc sequence.
void build_instant_arcs(std::vector<Edge>& arcs, std::span<const Edge> edges, bool directed);

/// Stream-mode sweep driver, shared by both backends so they group the
/// identical instants: walks the time-sorted event list backwards, one
/// distinct timestamp at a time, fills `arcs` for that instant and invokes
/// process(timestamp).
template <typename Process>
void for_each_instant_backward(std::span<const Event> events, bool directed,
                               std::vector<Edge>& arcs, Process&& process) {
    std::vector<Edge> group_edges;
    std::size_t end = events.size();
    while (end > 0) {
        const Time t = events[end - 1].t;
        std::size_t begin = end;
        while (begin > 0 && events[begin - 1].t == t) --begin;
        group_edges.clear();
        for (std::size_t i = begin; i < end; ++i) {
            group_edges.emplace_back(events[i].u, events[i].v);
        }
        build_instant_arcs(arcs, group_edges, directed);
        process(t);
        end = begin;
    }
}

}  // namespace detail

/// Reusable sweep engine over the packed state.  Construction is cheap; the
/// O(n * width) state is allocated on first use and reused across scans (the
/// occupancy method runs one scan per aggregation period on the same node
/// set, and the column-parallel drivers reuse one engine per worker).
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
                     const ReachabilityOptions& options = {}) {
        scan_series_columns(series, 0, series.num_nodes(), std::forward<Sink>(sink),
                            options);
    }

    /// Column-restricted series scan: identical sweep, destinations limited
    /// to [col_begin, col_end).  Emits exactly the full scan's trips with
    /// v in the range, in the full scan's relative order.
    /// Preconditions: col_begin <= col_end <= n; distance accumulation
    /// requires the full range.
    template <typename Sink>
    void scan_series_columns(const GraphSeries& series, NodeId col_begin, NodeId col_end,
                             Sink&& sink, const ReachabilityOptions& options = {});

    /// Enumerates all minimal trips of the raw link stream (each distinct
    /// timestamp is its own instant; dep/arr are the original timestamps —
    /// rank compression is internal).  Distance accumulation is not
    /// supported in stream mode.
    template <typename Sink>
    void scan_stream(const LinkStream& stream, Sink&& sink,
                     const ReachabilityOptions& options = {}) {
        scan_stream_columns(stream, 0, stream.num_nodes(), std::forward<Sink>(sink),
                            options);
    }

    /// Column-restricted stream scan; see scan_series_columns.
    template <typename Sink>
    void scan_stream_columns(const LinkStream& stream, NodeId col_begin, NodeId col_end,
                             Sink&& sink, const ReachabilityOptions& options = {});

    /// Final earliest-arrival state of the last scan: arr(u, v) is the
    /// earliest arrival over paths departing at any time (>= 1 / >= first
    /// timestamp), decoded back to original labels.  Exposed for tests and
    /// for reachability analyses.  Preconditions: v inside the column range
    /// of the last scan.
    Time arrival(NodeId u, NodeId v) const;
    Hops hop_count(NodeId u, NodeId v) const;

private:
    static constexpr std::uint32_t kUnreachableRank = 0xFFFFFFFFu;
    /// arrival rank 0xFFFFFFFF, hops 0: larger than every reachable packed
    /// value, and still larger after the +1 hop of a continuation candidate.
    static constexpr PackedState kUnreachablePacked =
        static_cast<PackedState>(kUnreachableRank) << 32;

    void prepare(NodeId n, NodeId col_begin, NodeId col_end);

    template <typename Sink>
    void process_instant(std::uint32_t rank, Time label, Sink& sink,
                         const ReachabilityOptions& options);

    /// Decodes the packed table into (arr, hops) vectors for
    /// DistanceAccumulator::finish.  Full column range only.
    void decode_tables();

    bool keep_pair(NodeId u, NodeId v, std::uint64_t divisor) const {
        return divisor <= 1 ||
               hash64(static_cast<std::uint64_t>(u) * n_ + v) % divisor == 0;
    }

    NodeId n_ = 0;
    NodeId col_begin_ = 0;
    NodeId col_end_ = 0;
    std::vector<PackedState> state_;    // n_ rows x (col_end_ - col_begin_) columns
    std::vector<PackedState> scratch_;  // pre-instant rows of active nodes
    std::vector<Time> labels_;          // rank -> original instant label
    std::vector<std::int32_t> slot_;    // node -> scratch slot, -1 when inactive
    std::vector<NodeId> active_;        // nodes with a scratch slot this instant
    std::vector<Edge> arcs_;            // current instant, sorted by source
    std::vector<Time> decode_arr_;      // DistanceAccumulator::finish scratch
    std::vector<Hops> decode_hops_;
};

// --- implementation --------------------------------------------------------

template <typename Sink>
void TemporalReachability::scan_series_columns(const GraphSeries& series, NodeId col_begin,
                                               NodeId col_end, Sink&& sink,
                                               const ReachabilityOptions& options) {
    prepare(series.num_nodes(), col_begin, col_end);
    const auto snapshots = series.snapshots();
    NATSCALE_EXPECTS(snapshots.size() < kUnreachableRank);
    labels_.resize(snapshots.size());
    for (std::size_t i = 0; i < snapshots.size(); ++i) labels_[i] = snapshots[i].k;
    if (options.distances != nullptr) {
        // The accumulator keeps full n x n state; a column-restricted scan
        // would feed it a partial view.
        NATSCALE_EXPECTS(col_begin == 0 && col_end == series.num_nodes());
        options.distances->begin(series.num_nodes(), series.num_windows());
    }
    for (std::size_t i = snapshots.size(); i-- > 0;) {
        detail::build_instant_arcs(arcs_, snapshots[i].edges, series.directed());
        process_instant(static_cast<std::uint32_t>(i), snapshots[i].k, sink, options);
    }
    if (options.distances != nullptr) {
        decode_tables();
        options.distances->finish(decode_arr_, decode_hops_);
    }
}

template <typename Sink>
void TemporalReachability::scan_stream_columns(const LinkStream& stream, NodeId col_begin,
                                               NodeId col_end, Sink&& sink,
                                               const ReachabilityOptions& options) {
    NATSCALE_EXPECTS(options.distances == nullptr);  // series mode only
    prepare(stream.num_nodes(), col_begin, col_end);
    const std::size_t distinct = stream.num_distinct_timestamps();
    NATSCALE_EXPECTS(distinct < kUnreachableRank);
    labels_.resize(distinct);
    // Ranks are assigned on the fly: the backward driver visits distinct
    // timestamps in strictly decreasing order, so rank distinct-1 .. 0 maps
    // them to increasing time; arrivals always reference ranks of instants
    // already visited (arrival >= departure), hence labels_ is filled before
    // any lookup reads it.
    std::size_t next_rank = distinct;
    detail::for_each_instant_backward(stream.events(), stream.directed(), arcs_,
                                      [&](Time t) {
                                          NATSCALE_EXPECTS(next_rank > 0);
                                          const auto rank =
                                              static_cast<std::uint32_t>(--next_rank);
                                          labels_[rank] = t;
                                          process_instant(rank, t, sink, options);
                                      });
    NATSCALE_ENSURES(next_rank == 0);
}

template <typename Sink>
void TemporalReachability::process_instant(std::uint32_t rank, Time label, Sink& sink,
                                           const ReachabilityOptions& options) {
    const std::size_t width = col_end_ - col_begin_;
    // A zero-width shard (col_begin == col_end, legal per the sharding
    // contract) owns no destination columns: nothing can be relaxed or
    // emitted, and state_ is empty, so taking row pointers below would be
    // out of bounds.
    if (width == 0) return;
    // The relaxation dispatch, resolved once per instant (the ISA cannot
    // change mid-scan; see util/simd.hpp).
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
        const bool u_in_range = u >= col_begin_ && u < col_end_;
        const std::size_t u_col = u_in_range ? u - col_begin_ : 0;
        for (; i < arcs_.size() && arcs_[i].first == u; ++i) {
            const NodeId w = arcs_[i].second;
            // Direct hop u -> w at this instant: (rank, 1) wins every tie by
            // hops, exactly the legacy two-field compare.
            if (w >= col_begin_ && w < col_end_) {
                PackedState& cell = row[w - col_begin_];
                cell = cell < direct ? cell : direct;
            }
            // Continuations u -> w (now) -> ... -> v (later): +1 in the low
            // 32 bits is +1 hop at unchanged arrival, and the unreachable
            // sentinel stays losing, so the whole relaxation is one
            // branchless min per cell — dispatched to the active SIMD path
            // (bit-identical to the scalar loop; pure unsigned integer min).
            PackedState* wrow = &scratch_[static_cast<std::size_t>(slot_[w]) * width];
            PackedState saved = 0;
            if (u_in_range) {  // never relax the diagonal pair (u, u)
                saved = wrow[u_col];
                wrow[u_col] = kUnreachablePacked;
            }
            vec.packed_min_add1(row, wrow, width);
            if (u_in_range) wrow[u_col] = saved;
        }

        // 4. Every strict arrival improvement is a minimal trip departing at
        //    this instant; any value change feeds the distance accumulator.
        //    Most cells survive a relaxation unchanged, so the dispatched
        //    next_mismatch skips equal runs a whole SIMD register at a time;
        //    consecutive changed cells are consumed by the inner inline loop
        //    so dense change bursts pay one indirect call per run, not per
        //    cell.
        const PackedState* old_row = &scratch_[static_cast<std::size_t>(slot_[u]) * width];
        std::size_t j = vec.next_mismatch(row, old_row, 0, width);
        while (j < width) {
            const PackedState now = row[j];
            const PackedState before = old_row[j];
            const NodeId v = col_begin_ + static_cast<NodeId>(j);
            const auto new_rank = static_cast<std::uint32_t>(now >> 32);
            const auto old_rank = static_cast<std::uint32_t>(before >> 32);
            if (options.distances != nullptr) {
                const Time old_arr =
                    old_rank == kUnreachableRank ? kInfiniteTime : labels_[old_rank];
                const Hops old_hops = old_rank == kUnreachableRank
                                          ? kInfiniteHops
                                          : static_cast<Hops>(static_cast<std::uint32_t>(before));
                options.distances->record_change(u, v, label, old_arr, old_hops);
            }
            if (new_rank < old_rank && keep_pair(u, v, options.pair_sample_divisor)) {
                sink(MinimalTrip{u, v, label, labels_[new_rank],
                                 static_cast<Hops>(static_cast<std::uint32_t>(now))});
            }
            ++j;
            if (j < width && row[j] != old_row[j]) continue;
            if (j >= width) break;
            j = vec.next_mismatch(row, old_row, j + 1, width);
        }
    }

    // 5. Release scratch slots.
    for (NodeId x : active_) slot_[x] = -1;
}

}  // namespace natscale

// Backend selection for temporal-reachability scans.
//
// Two sweep engines implement the identical backward minimal-trip DP:
//
//   dense   (temporal/reachability.hpp)         n^2 x 8 B packed state
//   sparse  (temporal/sparse_reachability.hpp)  16 B per reachable pair
//
// Both emit the exact same trip sequence, so the choice is purely a
// space/time trade-off, made by select_backend alone.  ReachabilityEngine
// is the facade every scan goes through:
//   * batch scans: core/occupancy directly; core/delta_sweep and
//     core/validation, and through them core/saturation and
//     core/segmentation, via scan_periods in temporal/scan_periods (one
//     facade per pool worker, one scan per period);
//   * the stream analyses, each a scan of its stream's Delta = 1 series
//     whose window k holds the events at t = k - 1:
//     temporal/transitions (lost_transitions_curve), temporal/trip_store
//     (elongation_curve's stream side) and temporal/reachability_stats
//     (reachability_census); and the distance scan of
//     core/classical_properties;
//   * the online engine (online/incremental_sweep, under `watch` and
//     `natscaled`): one facade per grid period, driven through the
//     resumable time-reversed form below.  All its periods are held at
//     once, so it asks select_backend(n, 0, {}) and also requires the whole
//     engine's tables, n^2 x 8 B x periods, to fit kDenseMemoryBudgetBytes.
// The facade holds both engines (each allocates its state lazily, on first
// use) and picks one per scan, or per reversed sweep.
//
// Selection rule, in order:
//   1. scans feeding a DistanceAccumulator use dense (the accumulator keeps
//      an n^2 table of its own, so sparse state would buy nothing);
//   2. if the dense table would exceed kDenseMemoryBudgetBytes, sparse —
//      this is what makes n = 200k streams feasible at all;
//   3. if the node set is large (>= kSparseMinNodes) and the stream is
//      sparse (average arcs per node <= kSparseDensityLimit), sparse — the
//      merge-based relaxation beats the dense `for v in 0..n` inner loop
//      when reachable sets are small;
//   4. otherwise dense.
// On the crossover workload of bench/perf_reachability (DenseVsSparse,
// ~4 events per node) the rule picks the faster engine at every measured
// n: dense at n = 256 and 1024, sparse at n = 4096 (README has the times).
#pragma once

#include "temporal/reachability.hpp"
#include "temporal/sparse_reachability.hpp"

namespace natscale {

/// Per-pair cost of the dense backend: one packed 64-bit
/// (arrival rank << 32 | hops) word.  The pre-packed kernel spent 12 B
/// (8 B Time + 4 B Hops) per pair; packing raised the node ceiling under
/// the fixed budget below from n ~ 4096 to n ~ 5016 (~22 %).
inline constexpr std::size_t kDensePairBytes = sizeof(TemporalReachability::PackedState);

/// Dense state above this budget (per engine — DeltaSweepEngine clones one
/// engine per worker thread) forces the sparse backend.  192 MiB caps the
/// packed dense table at n ~ 5016 nodes.
inline constexpr std::size_t kDenseMemoryBudgetBytes = std::size_t{192} << 20;

/// Node count from which a sparse-enough stream prefers the sparse backend
/// even though the dense tables would fit the budget.
inline constexpr NodeId kSparseMinNodes = 2048;

/// "Sparse enough": average arcs per node at or below this.
inline constexpr double kSparseDensityLimit = 8.0;

/// The backend of a scan over `num_nodes` nodes and `total_arcs`
/// instantaneous arcs (the series' total edges over all snapshots) with
/// `options`, by the rule above.
ReachabilityBackend select_backend(NodeId num_nodes, std::size_t total_arcs,
                                   const ReachabilityOptions& options);

/// The facade: scans with whichever backend select_backend picks.
class ReachabilityEngine {
public:
    /// A scan that accumulates distances resolves dense (rule 1), the one
    /// kernel that takes options.
    template <typename Sink>
    void scan_series(const GraphSeries& series, Sink&& sink,
                     const ReachabilityOptions& options = {}) {
        last_ = select_backend(series.num_nodes(), series.total_edges(), options);
        if (last_ == ReachabilityBackend::dense) {
            dense_.scan_series(series, std::forward<Sink>(sink), options);
        } else {
            sparse_.scan_series(series, std::forward<Sink>(sink));
        }
    }

    /// Backend used by the most recent scan, or holding the current
    /// reversed sweep (dense before any scan).
    ReachabilityBackend last_backend() const noexcept { return last_; }

    // --- resumable time-reversed form (online/incremental_sweep) -----------
    //
    // Window k is the instant labelled -k, fed in increasing k (see
    // temporal/reachability.hpp).  The caller picks the backend; the facade
    // keeps the sweep going when the dense kernel's rank range ends.

    /// Starts a reversed sweep over n nodes on `backend`.
    void begin(NodeId n, ReachabilityBackend backend) {
        last_ = backend;
        if (backend == ReachabilityBackend::dense) {
            dense_.begin(n);
        } else {
            sparse_.begin(n);
        }
    }

    /// Relaxes window k: emits the trips of the instant labelled -k.  A
    /// dense sweep reaching a window past TemporalReachability::
    /// kMaxReversedWindow first moves its state to the sparse backend and
    /// continues there.  Preconditions: begin() or restore_state() first;
    /// k >= 1, strictly increasing within one sweep.
    template <typename Sink>
    void relax_window(std::span<const Edge> edges, bool directed, WindowIndex k, Sink&& sink) {
        if (last_ == ReachabilityBackend::dense &&
            k > TemporalReachability::kMaxReversedWindow) {
            leave_dense();
        }
        if (last_ == ReachabilityBackend::dense) {
            dense_.relax_window(edges, directed, k, std::forward<Sink>(sink));
        } else {
            sparse_.relax_instant(edges, directed, -k, std::forward<Sink>(sink));
        }
    }

    /// The state of the last scan or reversed sweep as kernel-independent
    /// rows: identical for both backends after the same instants.
    std::vector<ReachRow> state_rows() const {
        return last_ == ReachabilityBackend::dense ? dense_.state_rows()
                                                   : sparse_.state_rows();
    }

    /// Resumes a reversed sweep from state_rows() output on `backend`, or
    /// on sparse when the rows hold a window the dense kernel cannot rank.
    /// Preconditions: as SparseTemporalReachability::restore_state.
    void restore_state(NodeId n, std::vector<ReachRow> rows, ReachabilityBackend backend);

    /// Frees the dense kernel's per-instant scratch
    /// (TemporalReachability::release_scratch); the sweep state is kept.
    void release_scratch() { dense_.release_scratch(); }

private:
    /// Moves a dense reversed sweep's state to the sparse backend and
    /// releases the dense table.
    void leave_dense();

    ReachabilityBackend last_ = ReachabilityBackend::dense;
    TemporalReachability dense_;
    SparseTemporalReachability sparse_;
};

}  // namespace natscale

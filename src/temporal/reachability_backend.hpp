// Backend selection for temporal-reachability scans.
//
// Two sweep engines implement the identical backward minimal-trip DP:
//
//   dense   (temporal/reachability.hpp)         n^2 x 8 B packed state
//   sparse  (temporal/sparse_reachability.hpp)  16 B per reachable pair
//
// Both emit the exact same trip sequence, so the choice is purely a
// space/time trade-off, made by select_backend alone.  ReachabilityEngine
// is the facade batch scans go through (core/occupancy directly;
// core/delta_sweep and core/validation, and through them core/saturation
// and core/segmentation, via scan_periods in temporal/sharded_scan): it
// holds both engines (each allocates its state lazily, on first use) and
// picks one per scan.  scan_periods applies the same rule per period when
// it splits a narrow period list into column shards.
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
/// instantaneous arcs (series: total edges over all snapshots; stream:
/// event count) with `options`, by the rule above.
ReachabilityBackend select_backend(NodeId num_nodes, std::size_t total_arcs,
                                   const ReachabilityOptions& options);

/// The facade: scans with whichever backend select_backend picks.
class ReachabilityEngine {
public:
    template <typename Sink>
    void scan_series(const GraphSeries& series, Sink&& sink,
                     const ReachabilityOptions& options = {}) {
        last_ = select_backend(series.num_nodes(), series.total_edges(), options);
        if (last_ == ReachabilityBackend::dense) {
            dense_.scan_series(series, std::forward<Sink>(sink), options);
        } else {
            sparse_.scan_series(series, std::forward<Sink>(sink), options);
        }
    }

    template <typename Sink>
    void scan_stream(const LinkStream& stream, Sink&& sink,
                     const ReachabilityOptions& options = {}) {
        last_ = select_backend(stream.num_nodes(), stream.num_events(), options);
        if (last_ == ReachabilityBackend::dense) {
            dense_.scan_stream(stream, std::forward<Sink>(sink), options);
        } else {
            sparse_.scan_stream(stream, std::forward<Sink>(sink), options);
        }
    }

    /// Final earliest-arrival state of the last scan, whichever backend ran.
    Time arrival(NodeId u, NodeId v) const {
        return last_ == ReachabilityBackend::dense ? dense_.arrival(u, v)
                                                   : sparse_.arrival(u, v);
    }
    Hops hop_count(NodeId u, NodeId v) const {
        return last_ == ReachabilityBackend::dense ? dense_.hop_count(u, v)
                                                   : sparse_.hop_count(u, v);
    }

    /// Backend used by the most recent scan (dense before any scan).
    ReachabilityBackend last_backend() const noexcept { return last_; }

private:
    ReachabilityBackend last_ = ReachabilityBackend::dense;
    TemporalReachability dense_;
    SparseTemporalReachability sparse_;
};

}  // namespace natscale

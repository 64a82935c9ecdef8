// Incremental Delta-sweep engine: occupancy statistics, Gamma metrics and
// the saturation scale of a GROWING link stream, without batch recompute.
//
// The batch pipeline (core/delta_sweep) answers "what is the occupancy
// histogram of G_Delta?" with one backward reachability sweep per period —
// O(events) work per period per question, even when the stream grew by one
// event since the last answer.  This engine maintains the answer instead.
//
// --- Why forward, and why it is exact ---------------------------------------
//
// The batch sweep runs BACKWARD (state at instant k covers departures >= k),
// so appending events at the tail invalidates every prefix of its state.
// The time-reversed sweep does not: processing window instants in
// increasing original order with negated labels (and reversed arcs when the
// stream is directed) is the identical kernel run on the time-reversed
// series, whose state after window k is a pure function of windows <= k —
// appending events only EXTENDS it.  Minimality of trips (Definition 5) is
// symmetric under time reversal, and so is the minimum hop count over the
// paths of a fixed (departure, arrival) interval, so the reversed sweep
// emits exactly the reversed trips of the batch sweep: the same multiset of
// (hops, duration) pairs, hence the same multiset of occupancy rates.
// Histogram01 accumulation is order-independent (integer bins, exact-sum
// moments — see stats/exact_sum), so the histogram built forward is
// BIT-IDENTICAL to the batch one: bins, total, mean, stddev, and every
// uniformity metric computed from them.  This is the repo's signature
// invariant, property-tested in tests/test_online_sweep.cpp against cold
// DeltaSweepEngine runs across thread counts.
//
// --- Frozen prefix + live tail ----------------------------------------------
//
// Per grid period Delta the engine keeps a FROZEN forward sweep state and
// histogram covering every SEALED window — window k is sealed once the
// feed's watermark guarantees no future event lands in [(k-1)D, kD).
// sync() folds newly sealed windows into the frozen state (each event is
// processed once per period over the stream's lifetime).  refresh() answers
// the current question: clone the frozen state, sweep only the unsealed
// tail windows, merge the tail trips into a copy of the frozen histogram,
// and score.  Refresh cost is O(tail + reachable pairs) per period — on a
// 10^7-event trace with a 1 % tail, orders of magnitude below the cold
// sweep (bench/perf_online.cpp measures it).
//
// The sweep state is the row-sparse backend's (temporal/sparse_reachability
// drives the identical kernel through its resumable entry points), so
// memory is bounded by the number of reachable ordered pairs per period —
// the same bound that makes n = 200k batch scans feasible — never
// threads x n^2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/delta_sweep.hpp"
#include "stats/histogram01.hpp"
#include "stats/uniformity.hpp"
#include "temporal/sparse_reachability.hpp"
#include "util/thread_pool.hpp"
#include "util/types.hpp"

namespace natscale {

struct OnlineSweepOptions {
    /// Aggregation periods to maintain, in ticks (>= 1 each); sorted and
    /// deduplicated at construction.  The grid is fixed for the engine's
    /// lifetime — a live deployment picks it from the expected horizon
    /// (e.g. core/delta_grid's geometric_delta_grid(1, T, points), exactly
    /// the coarse grid of the batch saturation search).
    std::vector<Time> grid;

    /// Occupancy histogram resolution and Shannon slot count (must match
    /// the batch run being compared against).
    std::size_t histogram_bins = Histogram01::kDefaultBins;
    std::size_t shannon_slots = 10;

    /// Metric whose argmax over the grid is reported as the saturation
    /// scale.
    UniformityMetric metric = UniformityMetric::mk_proximity;

    /// Threads for the per-period fan-out of sync()/refresh(); 0 = hardware
    /// concurrency, 1 = fully sequential.  Results are bit-identical for
    /// every value (each period owns its slot).
    std::size_t num_threads = 0;
};

/// One refreshed view of the whole grid.
struct OnlineReport {
    /// Scores per grid period, aligned with OnlineSweepEngine::grid().
    /// Bit-identical to DeltaSweepEngine::evaluate(grid) over the same
    /// event sequence.
    std::vector<DeltaPoint> points;

    /// argmax of the configured metric over `points` (first maximum wins —
    /// the batch search's tie rule); the saturation-scale estimate.
    std::size_t best_index = 0;
    Time gamma = 0;
    DeltaPoint at_gamma;

    /// Events covered by this report.
    std::uint64_t events_covered = 0;
};

class OnlineSweepEngine {
public:
    /// Preconditions: num_nodes >= 2; grid non-empty with every period
    /// >= 1.
    OnlineSweepEngine(NodeId num_nodes, bool directed, OnlineSweepOptions options);

    NodeId num_nodes() const noexcept { return num_nodes_; }
    bool directed() const noexcept { return directed_; }
    const OnlineSweepOptions& options() const noexcept { return options_; }

    /// The maintained periods: options.grid sorted and deduplicated.
    std::span<const Time> grid() const noexcept { return grid_; }

    /// Folds newly sealed windows into the per-period frozen states.
    /// `events` is the canonical (t, u, v)-sorted stream so far (e.g.
    /// StreamIngestor::finalized() or a natbin tail view) and must EXTEND
    /// the sequence of every earlier sync (append-only feed); `watermark`
    /// promises that no future event has t < watermark and must be
    /// nondecreasing across calls.  Events below the watermark must all be
    /// present.  Amortized cost: each event is folded once per period.
    void sync(std::span<const Event> events, Time watermark);

    /// Computes the current report over `events` (same extension contract
    /// as sync; the spans may include events beyond the last watermark).
    /// Does not advance the frozen state — calling it twice on the same
    /// events yields the identical report.  When `histograms_out` is
    /// non-null it receives the per-period occupancy histograms, aligned
    /// with grid().
    OnlineReport refresh(std::span<const Event> events,
                         std::vector<Histogram01>* histograms_out = nullptr);

    /// Length of the event sequence consumed by the last sync().
    std::uint64_t synced_events() const noexcept { return synced_events_; }

    /// Watermark of the last sync().
    Time synced_watermark() const noexcept { return watermark_; }

    /// Events folded into the frozen state of grid period `index` — the
    /// refresh tail starts there.  Exposed for the bench and the tests.
    std::uint64_t folded_events(std::size_t index) const;

    /// Re-binds the sync/refresh fan-out width (0 = hardware concurrency).
    /// Thread count is a runtime choice, not sweep state: load_checkpoint
    /// resets it to the default, and callers restoring an engine re-apply
    /// their own.  Results are bit-identical for every value.
    void set_num_threads(std::size_t num_threads) {
        options_.num_threads = num_threads;
        pool_.reset();
    }

private:
    friend void save_checkpoint(const std::string& path, const OnlineSweepEngine& engine);
    friend OnlineSweepEngine load_checkpoint(const std::string& path);
    friend std::vector<std::byte> serialize_checkpoint(const OnlineSweepEngine& engine);
    friend OnlineSweepEngine restore_checkpoint(std::span<const std::byte> bytes,
                                                const std::string& context);

    /// Frozen state of one grid period: the forward sweep state and
    /// occupancy histogram of every sealed window, plus the count of events
    /// they cover.
    struct PeriodState {
        Time delta = 0;
        std::uint64_t folded = 0;
        SparseTemporalReachability sweep;
        Histogram01 histogram{Histogram01::kDefaultBins};
    };

    OnlineSweepEngine() = default;  // load_checkpoint fills the fields
    ThreadPool& pool();

    NodeId num_nodes_ = 0;
    bool directed_ = false;
    OnlineSweepOptions options_;
    std::vector<Time> grid_;
    std::vector<PeriodState> periods_;
    std::uint64_t synced_events_ = 0;
    Time watermark_ = 0;
    std::unique_ptr<ThreadPool> pool_;
};

}  // namespace natscale

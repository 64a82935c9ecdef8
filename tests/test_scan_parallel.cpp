// Differential-parity suite for the parallel period scans (scan_periods,
// one task per period): occupancy histograms, batched Delta sweeps, the
// full saturation search, and the elongation validation must be
// bit-identical — trips counted, gamma, every curve score, histogram bins
// AND moments — to the sequential pre-packed reference across {1, N}
// threads, for grids both wider and narrower than the pool.  The small
// streams resolve to the dense backend; a large sparse stream drives the
// sparse-resolved periods and period lists mixing the two, for the sweep
// against a direct dense-engine reference and for the elongation curve
// across thread counts.  N defaults to 4 and is overridable through the
// NATSCALE_TEST_THREADS environment variable so CI can force
// oversubscription (threads > cores) and shake out scheduling-order
// dependence a wide machine would never hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "core/validation.hpp"
#include "linkstream/aggregation.hpp"
#include "obs/metrics.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability_backend.hpp"
#include "testing/histograms.hpp"
#include "testing/legacy_reachability.hpp"
#include "testing/streams.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

using testing::burst_pairs_stream;
using testing::expect_identical_histograms;

/// Thread count under test: 4 unless the environment overrides it (the CI
/// oversubscription job sets it above the runner's core count).
std::size_t test_threads() {
    if (const char* env = std::getenv("NATSCALE_TEST_THREADS")) {
        const int parsed = std::atoi(env);
        if (parsed > 1) return static_cast<std::size_t>(parsed);
    }
    return 4;
}

bool same_bits(double a, double b) {
    std::uint64_t ia = 0;
    std::uint64_t ib = 0;
    std::memcpy(&ia, &a, sizeof a);
    std::memcpy(&ib, &b, sizeof b);
    return ia == ib;
}

LinkStream random_stream(std::uint64_t seed, NodeId n, std::size_t num_events, Time period,
                         bool directed = false) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(num_events);
    for (std::size_t i = 0; i < num_events; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        events.push_back({u, v, rng.uniform_int(0, period - 1)});
    }
    return LinkStream(std::move(events), n, period, directed);
}

void expect_same_point(const DeltaPoint& a, const DeltaPoint& b) {
    EXPECT_EQ(a.delta, b.delta);
    EXPECT_EQ(a.num_trips, b.num_trips);
    EXPECT_TRUE(same_bits(a.occupancy_mean, b.occupancy_mean));
    EXPECT_TRUE(same_bits(a.scores.mk_proximity, b.scores.mk_proximity));
    EXPECT_TRUE(same_bits(a.scores.std_deviation, b.scores.std_deviation));
    EXPECT_TRUE(same_bits(a.scores.shannon_entropy, b.scores.shannon_entropy));
    EXPECT_TRUE(same_bits(a.scores.cre, b.scores.cre));
    EXPECT_TRUE(same_bits(a.scores.variation_coefficient, b.scores.variation_coefficient));
}

TEST(ScanParallel, OccupancyHistogramBitIdenticalToPrePackedSequentialScan) {
    const auto stream = random_stream(51, 150, 1'500, 30'000);
    for (const Time delta : {10, 40, 700, 15'000}) {
        const auto series = aggregate(stream, delta);
        // The reference: legacy scalar kernel, one accumulator, one add
        // per trip.
        Histogram01 reference(720);
        std::uint64_t table_trips = 0;
        std::uint64_t longer_trips = 0;
        LegacyTemporalReachability legacy;
        legacy.scan_series(series, [&](const MinimalTrip& trip) {
            ++(series_duration(trip) <= OccupancyTally::kMaxTableDuration ? table_trips
                                                                          : longer_trips);
            reference.add(series_occupancy(trip));
        });
        SCOPED_TRACE("delta=" + std::to_string(delta));
        // Delta = 10 (3000 windows) has trips on both sides of the tally
        // table's edge.
        if (delta == 10) {
            EXPECT_GT(table_trips, 0u);
            EXPECT_GT(longer_trips, 0u);
        }
        // The sequential scan ...
        expect_identical_histograms(occupancy_histogram(series, 720), reference);

        // ... and the same period as a one-point grid on an N-thread pool.
        DeltaSweepOptions options;
        options.histogram_bins = 720;
        options.num_threads = test_threads();
        DeltaSweepEngine engine(stream, options);
        std::vector<Histogram01> hists;
        const std::vector<Time> grid = {delta};
        engine.evaluate(grid, &hists);
        ASSERT_EQ(hists.size(), 1u);
        expect_identical_histograms(hists.front(), reference);
    }
}

TEST(ScanParallel, DeltaSweepNarrowGridBitIdenticalAcrossThreads) {
    const auto stream = random_stream(57, 200, 2'000, 50'000);
    const std::vector<Time> narrow_grid = {60, 900, 20'000};

    DeltaSweepOptions reference_options;
    reference_options.num_threads = 1;
    reference_options.histogram_bins = 360;
    DeltaSweepEngine reference_engine(stream, reference_options);
    std::vector<Histogram01> reference_hists;
    const auto reference = reference_engine.evaluate(narrow_grid, &reference_hists);

    for (const std::size_t threads : {std::size_t{1}, test_threads()}) {
        DeltaSweepOptions options;
        options.histogram_bins = 360;
        // At N threads the pool is wider than the grid.
        options.num_threads = threads;
        DeltaSweepEngine engine(stream, options);
        std::vector<Histogram01> hists;
        const auto points = engine.evaluate(narrow_grid, &hists);
        ASSERT_EQ(points.size(), reference.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE("i=" + std::to_string(i) + " threads=" + std::to_string(threads));
            expect_same_point(points[i], reference[i]);
            expect_identical_histograms(hists[i], reference_hists[i]);
        }
    }
}

TEST(ScanParallel, SaturationSearchBitIdenticalAcrossThreadsAndBackends) {
    // n = 80 resolves every period dense; on the burst stream the search
    // crosses from dense to sparse periods.
    const obs::Counter& sparse_deltas = obs::counter("sweep.sparse_deltas");
    for (const LinkStream& stream : {random_stream(61, 80, 900, 25'000), burst_pairs_stream()}) {
        SCOPED_TRACE("n=" + std::to_string(stream.num_nodes()));
        SweepConfig options;
        options.coarse_points = 12;
        options.refine_rounds = 2;
        options.refine_points = 5;
        options.histogram_bins = 360;
        options.num_threads = 1;
        const std::uint64_t sparse_before = sparse_deltas.read();
        const auto reference = find_saturation_scale(stream, options);
        EXPECT_EQ(sparse_deltas.read() > sparse_before, stream.num_nodes() >= kSparseMinNodes);

        options.num_threads = test_threads();
        const auto result = find_saturation_scale(stream, options);
        EXPECT_EQ(result.gamma, reference.gamma);
        ASSERT_EQ(result.curve.size(), reference.curve.size());
        for (std::size_t i = 0; i < result.curve.size(); ++i) {
            expect_same_point(result.curve[i], reference.curve[i]);
        }
        expect_same_point(result.at_gamma, reference.at_gamma);
        expect_identical_histograms(result.gamma_histogram, reference.gamma_histogram);
    }
}

/// Runs elongation_curve over `deltas` at one thread and at `threads`,
/// checks the curves bit for bit, and checks that each run counted
/// `sparse_periods` sparse-resolved periods.
void expect_elongation_thread_invariant(const LinkStream& stream, const std::vector<Time>& deltas,
                                        std::size_t threads, std::uint64_t sparse_periods) {
    const obs::Counter& sparse_deltas = obs::counter("sweep.sparse_deltas");
    SweepConfig options;
    options.num_threads = 1;
    std::uint64_t sparse_before = sparse_deltas.read();
    const auto reference = elongation_curve(stream, deltas, options);
    EXPECT_EQ(sparse_deltas.read() - sparse_before, sparse_periods);

    options.num_threads = threads;
    sparse_before = sparse_deltas.read();
    const auto curve = elongation_curve(stream, deltas, options);
    EXPECT_EQ(sparse_deltas.read() - sparse_before, sparse_periods);
    ASSERT_EQ(curve.size(), reference.size());
    for (std::size_t i = 0; i < curve.size(); ++i) {
        SCOPED_TRACE("delta=" + std::to_string(deltas[i]) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(curve[i].delta, reference[i].delta);
        EXPECT_EQ(curve[i].measured_trips, reference[i].measured_trips);
        EXPECT_TRUE(same_bits(curve[i].mean_elongation, reference[i].mean_elongation));
    }
}

TEST(ScanParallel, ElongationCurveBitIdenticalAcrossThreads) {
    // n = 60 resolves dense; at the default N = 4 the three periods are
    // narrower than the pool.
    expect_elongation_thread_invariant(random_stream(67, 60, 700, 8'000), {50, 400, 2'000},
                                       test_threads(), 0);

    // The burst stream: a wide list whose periods all resolve sparse, and
    // a narrow list mixing one dense period (Delta = 2) with one sparse
    // period (Delta = 5000).
    const auto stream = burst_pairs_stream();
    const std::vector<Time> wide =
        geometric_delta_grid(50, stream.period_end(), std::max<std::size_t>(6, test_threads()));
    const std::size_t threads = std::max<std::size_t>(3, test_threads());
    expect_elongation_thread_invariant(stream, wide, threads, wide.size());
    expect_elongation_thread_invariant(stream, {2, 5'000}, threads, 1);
}

TEST(ScanParallel, OversubscribedThreadsStayDeterministic) {
    // Pools far wider than any core count the CI runners have, each given a
    // grid at least as wide as itself: the scheduler interleaves whole-period
    // tasks and their per-worker engines arbitrarily, results must not move.
    const auto stream = random_stream(71, 120, 1'000, 12'000);
    const std::vector<Time> grid = geometric_delta_grid(20, 12'000, 61);
    ASSERT_EQ(grid.size(), 61u);
    const auto evaluate = [&](std::size_t threads) {
        DeltaSweepOptions options;
        options.histogram_bins = 360;
        options.num_threads = threads;
        DeltaSweepEngine engine(stream, options);
        std::vector<Histogram01> hists;
        const auto points = engine.evaluate(grid, &hists);
        return std::pair{points, hists};
    };
    const auto [reference_points, reference_hists] = evaluate(1);
    for (const std::size_t threads : {std::size_t{3}, std::size_t{16}, std::size_t{61}}) {
        ASSERT_LE(threads, grid.size());
        const auto [points, hists] = evaluate(threads);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " delta=" + std::to_string(grid[i]));
            expect_same_point(points[i], reference_points[i]);
            expect_identical_histograms(hists[i], reference_hists[i]);
        }
    }
}

/// Reference for one period: the histogram of a direct dense-engine scan of
/// aggregate(stream, delta), bypassing select_backend and the sweep engine.
Histogram01 dense_engine_histogram(const LinkStream& stream, Time delta) {
    Histogram01 hist(360);
    TemporalReachability dense;
    dense.scan_series(aggregate(stream, delta),
                      [&](const MinimalTrip& trip) { hist.add(series_occupancy(trip)); });
    return hist;
}

/// Evaluates `grid` on a `threads`-wide engine and checks every point and
/// histogram against dense_engine_histogram, plus how many periods each
/// backend counter saw.
void expect_grid_matches_dense_engine(const LinkStream& stream, const std::vector<Time>& grid,
                                      std::size_t threads, std::uint64_t dense_periods,
                                      std::uint64_t sparse_periods) {
    const obs::Counter& dense_deltas = obs::counter("sweep.dense_deltas");
    const obs::Counter& sparse_deltas = obs::counter("sweep.sparse_deltas");
    const std::uint64_t dense_before = dense_deltas.read();
    const std::uint64_t sparse_before = sparse_deltas.read();

    DeltaSweepOptions options;
    options.histogram_bins = 360;
    options.num_threads = threads;
    DeltaSweepEngine engine(stream, options);
    std::vector<Histogram01> hists;
    const auto points = engine.evaluate(grid, &hists);

    EXPECT_EQ(dense_deltas.read() - dense_before, dense_periods);
    EXPECT_EQ(sparse_deltas.read() - sparse_before, sparse_periods);
    ASSERT_EQ(points.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE("delta=" + std::to_string(grid[i]) +
                     " threads=" + std::to_string(threads));
        const Histogram01 reference = dense_engine_histogram(stream, grid[i]);
        expect_same_point(points[i], score_delta_point(grid[i], reference, options.shannon_slots));
        expect_identical_histograms(hists[i], reference);
    }
}

TEST(ScanParallel, SparseResolvedGridsBitIdenticalToDenseEngine) {
    const auto stream = burst_pairs_stream();
    // At least as wide as the pool, and narrower than it.
    const std::vector<Time> wide =
        geometric_delta_grid(50, stream.period_end(), std::max<std::size_t>(6, test_threads()));
    const std::vector<Time> narrow = {200, 9'000};
    const std::size_t threads = std::max<std::size_t>(3, test_threads());
    for (const std::size_t pool : {std::size_t{1}, threads}) {
        expect_grid_matches_dense_engine(stream, wide, pool, 0, wide.size());
        expect_grid_matches_dense_engine(stream, narrow, pool, 0, narrow.size());
    }
}

TEST(ScanParallel, NarrowGridMixingDenseAndSparsePeriodsBitIdenticalToDenseEngine) {
    // Delta = 2 resolves dense, 5000 sparse: one grid, narrower than the
    // N-thread pool, holds both kinds of task.
    const auto stream = burst_pairs_stream();
    const std::vector<Time> grid = {2, 5'000};
    for (const std::size_t pool : {std::size_t{1}, std::max<std::size_t>(3, test_threads())}) {
        expect_grid_matches_dense_engine(stream, grid, pool, 1, 1);
    }
}

}  // namespace
}  // namespace natscale

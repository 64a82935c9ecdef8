// Differential-parity suite for intra-scan column parallelism: occupancy
// histograms, batched Delta sweeps, the full saturation search, and the
// elongation validation must be bit-identical — trips counted, gamma, every
// curve score, histogram bins AND moments — to the sequential pre-packed
// reference across {1, N} threads x series/stream modes.  Grids narrower
// than an N-thread pool run as (period, column shard) tasks, so the
// N-thread legs exercise the sharded path.  The small streams resolve to
// the dense backend; a large sparse stream drives the sparse-resolved
// periods (whole tasks on both paths) and a grid mixing the two against a
// direct dense-engine reference.  N defaults to 4 and is overridable
// through the NATSCALE_TEST_THREADS environment variable so CI can force
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
#include "temporal/column_shards.hpp"
#include "temporal/legacy_reachability.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability_backend.hpp"
#include "testing/streams.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

using testing::burst_pairs_stream;

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

void expect_same_histogram(const Histogram01& a, const Histogram01& b) {
    EXPECT_EQ(a.counts(), b.counts());
    EXPECT_EQ(a.total(), b.total());
    EXPECT_TRUE(same_bits(a.mean(), b.mean()));
    EXPECT_TRUE(same_bits(a.population_stddev(), b.population_stddev()));
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
    for (const Time delta : {40, 700, 15'000}) {
        const auto series = aggregate(stream, delta);
        // The pre-PR sequential path: legacy scalar kernel, one accumulator.
        Histogram01 reference(720);
        LegacyTemporalReachability legacy;
        legacy.scan_series(series, [&](const MinimalTrip& trip) {
            reference.add(series_occupancy(trip));
        });
        SCOPED_TRACE("delta=" + std::to_string(delta));
        // The sequential scan ...
        expect_same_histogram(occupancy_histogram(series, 720), reference);

        // ... and the same period as a one-point grid on an N-thread pool,
        // which splits its dense scan into column shards.
        DeltaSweepOptions options;
        options.histogram_bins = 720;
        options.num_threads = test_threads();
        DeltaSweepEngine engine(stream, options);
        std::vector<Histogram01> hists;
        const std::vector<Time> grid = {delta};
        engine.evaluate(grid, &hists);
        ASSERT_EQ(hists.size(), 1u);
        expect_same_histogram(hists.front(), reference);
    }
}

TEST(ScanParallel, StreamModeShardedScanBitIdenticalToPrePackedScan) {
    // Stream-mode parity: the column shards of a raw-stream scan must
    // reproduce the legacy kernel's per-trip stream exactly (here reduced
    // through the split-invariant histogram of stream occupancies).
    const auto stream = random_stream(53, 300, 1'200, 10'000);
    const auto add_occ = [](Histogram01& hist, const MinimalTrip& trip) {
        const Time duration = stream_duration(trip);
        if (duration > 0) {
            hist.add(static_cast<double>(trip.hops) / static_cast<double>(duration));
        }
    };
    Histogram01 reference(360);
    LegacyTemporalReachability legacy;
    legacy.scan_stream(stream, [&](const MinimalTrip& t) { add_occ(reference, t); });

    Histogram01 sharded(360);
    TemporalReachability packed;
    for (const ColumnShard& shard : column_shards(stream.num_nodes())) {
        Histogram01 partial(360);
        packed.scan_stream_columns(stream, shard.begin, shard.end,
                                   [&](const MinimalTrip& t) { add_occ(partial, t); });
        sharded.merge(partial);
    }
    expect_same_histogram(sharded, reference);
}

TEST(ScanParallel, DeltaSweepNarrowGridShardedPathBitIdenticalToOuterPath) {
    const auto stream = random_stream(57, 200, 2'000, 50'000);
    const std::vector<Time> narrow_grid = {60, 900, 20'000};

    DeltaSweepOptions reference_options;
    reference_options.num_threads = 1;
    reference_options.histogram_bins = 360;
    DeltaSweepEngine reference_engine(stream, reference_options);
    std::vector<Histogram01> reference_hists;
    const auto reference = reference_engine.evaluate(narrow_grid, &reference_hists);

    const obs::Counter& shards_scanned = obs::counter("sweep.shards_scanned");
    for (const std::size_t threads : {std::size_t{1}, test_threads()}) {
        DeltaSweepOptions options;
        options.histogram_bins = 360;
        // A pool wider than the grid engages the (period, shard)
        // decomposition; a one-thread pool never does.
        options.num_threads = threads;
        DeltaSweepEngine engine(stream, options);
        std::vector<Histogram01> hists;
        const std::uint64_t shards_before = shards_scanned.read();
        const auto points = engine.evaluate(narrow_grid, &hists);
        EXPECT_EQ(shards_scanned.read() > shards_before, narrow_grid.size() < threads);
        ASSERT_EQ(points.size(), reference.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE("i=" + std::to_string(i) + " threads=" + std::to_string(threads));
            expect_same_point(points[i], reference[i]);
            expect_same_histogram(hists[i], reference_hists[i]);
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
        expect_same_histogram(result.gamma_histogram, reference.gamma_histogram);
    }
}

TEST(ScanParallel, ElongationCurveBitIdenticalAcrossThreads) {
    const auto stream = random_stream(67, 60, 700, 8'000);
    const std::vector<Time> deltas = {50, 400, 2'000};

    SweepConfig reference_options;
    reference_options.num_threads = 1;
    const auto reference = elongation_curve(stream, deltas, reference_options);

    SweepConfig options;
    options.num_threads = test_threads();
    const auto curve = elongation_curve(stream, deltas, options);
    ASSERT_EQ(curve.size(), reference.size());
    for (std::size_t i = 0; i < curve.size(); ++i) {
        SCOPED_TRACE("i=" + std::to_string(i));
        EXPECT_EQ(curve[i].delta, reference[i].delta);
        EXPECT_EQ(curve[i].measured_trips, reference[i].measured_trips);
        EXPECT_TRUE(same_bits(curve[i].mean_elongation, reference[i].mean_elongation));
    }
}

TEST(ScanParallel, OversubscribedThreadsStayDeterministic) {
    // Pools far wider than any core count the CI runners have: the scheduler
    // interleaves the one-period grid's shard tasks arbitrarily, results
    // must not move.
    const auto stream = random_stream(71, 120, 1'000, 12'000);
    const std::vector<Time> grid = {150};
    const auto evaluate = [&](std::size_t threads) {
        DeltaSweepOptions options;
        options.histogram_bins = 360;
        options.num_threads = threads;
        DeltaSweepEngine engine(stream, options);
        std::vector<Histogram01> hists;
        const auto points = engine.evaluate(grid, &hists);
        return std::pair{points.front(), hists.front()};
    };
    const auto [reference_point, reference_hist] = evaluate(1);
    for (const std::size_t threads : {std::size_t{3}, std::size_t{16}, std::size_t{61}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const auto [point, hist] = evaluate(threads);
        expect_same_point(point, reference_point);
        expect_same_histogram(hist, reference_hist);
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
        expect_same_histogram(hists[i], reference);
    }
}

TEST(ScanParallel, SparseResolvedGridsBitIdenticalToDenseEngine) {
    const auto stream = burst_pairs_stream();
    // At least as wide as the pool (whole-period tasks) and narrower than
    // it (the sharded plan, which keeps sparse periods whole).
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
    // Delta = 2 resolves dense (split into column shards), 5000 sparse
    // (kept whole): one sharded plan holds both kinds of task.
    const auto stream = burst_pairs_stream();
    const std::vector<Time> grid = {2, 5'000};
    const obs::Counter& shards_scanned = obs::counter("sweep.shards_scanned");
    const std::uint64_t shards_before = shards_scanned.read();
    expect_grid_matches_dense_engine(stream, grid, std::max<std::size_t>(3, test_threads()), 1,
                                     1);
    EXPECT_EQ(shards_scanned.read() - shards_before, column_shards(kSparseMinNodes).size() + 1);
}

}  // namespace
}  // namespace natscale

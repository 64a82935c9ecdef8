// Equivalence suite for the row-sparse reachability backend: the sparse
// engine must emit the exact same minimal-trip sequence (same trips, same
// order — so every float accumulation downstream is bit-identical) as the
// dense engine, on series and stream scans, with and without pair sampling,
// and through the whole saturation search for every thread count.  The
// engines are called directly; select_backend's rule (also tested here)
// decides which one a batch scan runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "core/saturation.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

LinkStream random_stream(std::uint64_t seed, NodeId n, std::size_t num_events, Time period,
                         bool directed) {
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

std::vector<MinimalTrip> dense_series_trips(const GraphSeries& series,
                                            const ReachabilityOptions& options = {}) {
    std::vector<MinimalTrip> trips;
    TemporalReachability engine;
    engine.scan_series(series, [&](const MinimalTrip& t) { trips.push_back(t); }, options);
    return trips;
}

std::vector<MinimalTrip> sparse_series_trips(const GraphSeries& series,
                                             const ReachabilityOptions& options = {}) {
    std::vector<MinimalTrip> trips;
    SparseTemporalReachability engine;
    engine.scan_series(series, [&](const MinimalTrip& t) { trips.push_back(t); }, options);
    return trips;
}

TEST(SparseReachability, SeriesTripSequenceIdenticalToDense) {
    for (const bool directed : {false, true}) {
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            const auto stream = random_stream(seed, 40, 400, 5'000, directed);
            for (const Time delta : {1, 50, 500, 5'000}) {
                const auto series = aggregate(stream, delta);
                const auto dense = dense_series_trips(series);
                const auto sparse = sparse_series_trips(series);
                ASSERT_EQ(dense.size(), sparse.size())
                    << "seed=" << seed << " delta=" << delta << " directed=" << directed;
                for (std::size_t i = 0; i < dense.size(); ++i) {
                    ASSERT_EQ(dense[i], sparse[i])
                        << "trip #" << i << " seed=" << seed << " delta=" << delta;
                }
            }
        }
    }
}

TEST(SparseReachability, StreamModeTripSequenceIdenticalToDense) {
    for (const bool directed : {false, true}) {
        const auto stream = random_stream(7, 30, 300, 2'000, directed);
        std::vector<MinimalTrip> dense;
        std::vector<MinimalTrip> sparse;
        TemporalReachability dense_engine;
        SparseTemporalReachability sparse_engine;
        dense_engine.scan_stream(stream, [&](const MinimalTrip& t) { dense.push_back(t); });
        sparse_engine.scan_stream(stream, [&](const MinimalTrip& t) { sparse.push_back(t); });
        ASSERT_EQ(dense.size(), sparse.size());
        for (std::size_t i = 0; i < dense.size(); ++i) ASSERT_EQ(dense[i], sparse[i]);
    }
}

TEST(SparseReachability, FinalArrivalStateMatchesDense) {
    const auto stream = random_stream(11, 25, 200, 1'000, false);
    const auto series = aggregate(stream, 40);
    TemporalReachability dense;
    SparseTemporalReachability sparse;
    dense.scan_series(series, [](const MinimalTrip&) {});
    sparse.scan_series(series, [](const MinimalTrip&) {});
    std::size_t finite = 0;
    for (NodeId u = 0; u < stream.num_nodes(); ++u) {
        for (NodeId v = 0; v < stream.num_nodes(); ++v) {
            ASSERT_EQ(dense.arrival(u, v), sparse.arrival(u, v)) << u << "," << v;
            ASSERT_EQ(dense.hop_count(u, v), sparse.hop_count(u, v)) << u << "," << v;
            if (dense.arrival(u, v) != kInfiniteTime) ++finite;
        }
    }
    // The sparse state is exactly the finite entries, nothing more.
    EXPECT_EQ(sparse.num_finite_entries(), finite);
}

TEST(SparseReachability, PairSamplingIdenticalToDense) {
    const auto stream = random_stream(13, 30, 300, 2'000, false);
    const auto series = aggregate(stream, 100);
    ReachabilityOptions options;
    options.pair_sample_divisor = 3;
    const auto dense = dense_series_trips(series, options);
    const auto sparse = sparse_series_trips(series, options);
    ASSERT_EQ(dense.size(), sparse.size());
    for (std::size_t i = 0; i < dense.size(); ++i) ASSERT_EQ(dense[i], sparse[i]);
    // Sampling selects a strict subset.
    EXPECT_LT(dense.size(), dense_series_trips(series).size());
}

TEST(SparseReachability, RepeatedScansReuseState) {
    // The engine is documented as reusable across scans (the sweep allocates
    // per-source rows once and clears them per scan).
    const auto stream = random_stream(17, 20, 150, 1'000, false);
    SparseTemporalReachability engine;
    std::vector<MinimalTrip> first;
    std::vector<MinimalTrip> second;
    const auto series = aggregate(stream, 25);
    engine.scan_series(series, [&](const MinimalTrip& t) { first.push_back(t); });
    engine.scan_series(series, [&](const MinimalTrip& t) { second.push_back(t); });
    EXPECT_EQ(first, second);
}

TEST(SparseReachability, RejectsDistanceAccumulation) {
    const auto stream = random_stream(19, 10, 50, 500, false);
    const auto series = aggregate(stream, 50);
    DistanceAccumulator distances;
    ReachabilityOptions options;
    options.distances = &distances;
    SparseTemporalReachability engine;
    EXPECT_THROW(engine.scan_series(series, [](const MinimalTrip&) {}, options),
                 contract_error);
}

TEST(BackendSelection, SmallNodeSetsStayDense) {
    EXPECT_EQ(select_backend(100, 10'000, {}), ReachabilityBackend::dense);
    EXPECT_EQ(select_backend(1'000, 10, {}), ReachabilityBackend::dense);
}

TEST(BackendSelection, LargeNodeSetsGoSparse) {
    // n = 200k: dense tables would need n^2 x 12 B ~ 480 GB.
    EXPECT_EQ(select_backend(200'000, 1'000'000, {}), ReachabilityBackend::sparse);
}

TEST(BackendSelection, LargeSparseStreamsGoSparseWithinBudget) {
    // Dense would fit the budget at n = 3000, but at ~1 arc/node the sparse
    // merge relaxation wins.
    EXPECT_EQ(select_backend(3'000, 3'000, {}), ReachabilityBackend::sparse);
    // Same n, dense stream: dense tables win.
    EXPECT_EQ(select_backend(3'000, 10'000'000, {}), ReachabilityBackend::dense);
}

TEST(BackendSelection, DistanceAccumulationForcesDense) {
    DistanceAccumulator distances;
    ReachabilityOptions options;
    options.distances = &distances;
    EXPECT_EQ(select_backend(200'000, 10, options), ReachabilityBackend::dense);
}

TEST(ReachabilityEngine, FacadeDispatchesAndAgrees) {
    ReachabilityEngine engine;
    std::vector<MinimalTrip> trips;
    const auto collect = [&](const MinimalTrip& t) { trips.push_back(t); };

    // n = 30: dense.
    const auto small = aggregate(random_stream(23, 30, 300, 2'000, false), 100);
    engine.scan_series(small, collect);
    EXPECT_EQ(engine.last_backend(), ReachabilityBackend::dense);
    EXPECT_EQ(trips, sparse_series_trips(small));

    // n = kSparseMinNodes at 2 arcs per node: sparse.
    const auto large =
        aggregate(random_stream(31, kSparseMinNodes, 2 * kSparseMinNodes, 4'000, false), 10);
    trips.clear();
    engine.scan_series(large, collect);
    EXPECT_EQ(engine.last_backend(), ReachabilityBackend::sparse);
    EXPECT_EQ(trips, dense_series_trips(large));
    // Post-scan lookups go through the sparse state.
    ASSERT_FALSE(trips.empty());
    const NodeId u = trips.front().u;
    TemporalReachability reference;
    reference.scan_series(large, [](const MinimalTrip&) {});
    for (NodeId v = 0; v < large.num_nodes(); ++v) {
        EXPECT_EQ(engine.arrival(u, v), reference.arrival(u, v)) << v;
        EXPECT_EQ(engine.hop_count(u, v), reference.hop_count(u, v)) << v;
    }
}

/// Bitwise equality for doubles (== would conflate -0.0 with 0.0 and miss
/// NaN); the saturation results of the two backends must match to the bit.
bool same_bits(double a, double b) {
    std::uint64_t ia = 0;
    std::uint64_t ib = 0;
    std::memcpy(&ia, &a, sizeof a);
    std::memcpy(&ib, &b, sizeof b);
    return ia == ib;
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

TEST(SparseReachability, SaturationSearchBitIdenticalAcrossBackendsAndThreads) {
    // n = 60 resolves every scan of find_saturation_scale to dense; the
    // same search through an evaluator that scans each period with the
    // sparse engine must match it to the bit at every thread count.
    const auto stream = random_stream(29, 60, 800, 20'000, false);

    SweepConfig base;
    base.coarse_points = 16;
    base.refine_rounds = 1;
    base.refine_points = 6;
    base.histogram_bins = 360;

    const GridEvaluator sparse_evaluator = [&](std::span<const Time> grid,
                                               std::vector<Histogram01>* histograms) {
        std::vector<DeltaPoint> points;
        SparseTemporalReachability engine;
        for (const Time delta : grid) {
            Histogram01 hist(base.histogram_bins);
            engine.scan_series(aggregate(stream, delta), [&](const MinimalTrip& trip) {
                hist.add(series_occupancy(trip));
            });
            points.push_back(score_delta_point(delta, hist, base.shannon_slots));
            if (histograms != nullptr) histograms->push_back(std::move(hist));
        }
        return points;
    };
    const auto reference =
        find_saturation_scale_with(sparse_evaluator, 1, stream.period_end(), base);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SweepConfig options = base;
        options.num_threads = threads;
        const auto result = find_saturation_scale(stream, options);

        EXPECT_EQ(result.gamma, reference.gamma) << "threads=" << threads;
        ASSERT_EQ(result.curve.size(), reference.curve.size());
        for (std::size_t i = 0; i < result.curve.size(); ++i) {
            expect_same_point(result.curve[i], reference.curve[i]);
        }
        expect_same_point(result.at_gamma, reference.at_gamma);
        EXPECT_EQ(result.gamma_histogram.counts(), reference.gamma_histogram.counts());
        EXPECT_TRUE(same_bits(result.gamma_histogram.mean(),
                              reference.gamma_histogram.mean()));
        EXPECT_TRUE(same_bits(result.gamma_histogram.population_stddev(),
                              reference.gamma_histogram.population_stddev()));
    }
}

}  // namespace
}  // namespace natscale

// Large-n scale test: a synthetic 200k-node sparse stream must complete a
// full occupancy histogram through the automatically-selected sparse backend
// in well under 2 GB peak RSS.  The dense backend is physically impossible
// here — its tables alone would need n^2 x 12 B ~ 480 GB — so this test is
// the executable form of the sparse backend's reason to exist, and it runs
// in CI with the rest of the suite.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/occupancy.hpp"
#include "core/validation.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"
#include "temporal/reachability_stats.hpp"
#include "temporal/transitions.hpp"
#include "temporal/trip_store.hpp"
#include "testing/temp_files.hpp"  // NATSCALE_SANITIZED
#include "util/proc_rss.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

/// Peak RSS in MiB, or 0.0 when unmeasurable or meaningless (under a
/// sanitizer the shadow memory is not this code's memory behaviour).
double bounded_peak_rss_mib() {
#ifdef NATSCALE_SANITIZED
    return 0.0;
#else
    return peak_rss_mib();
#endif
}

/// Ring-local contact stream: each event links a random node to its ring
/// neighbour at a random instant.  ~2.5 events per node on average (the
/// ISSUE's "sparse" regime is <= 10), so per-source reachable sets stay
/// small at every aggregation period.
LinkStream large_sparse_stream() {
    constexpr NodeId kNodes = 200'000;
    constexpr std::size_t kEvents = 500'000;
    constexpr Time kPeriod = 1'000'000;
    Rng rng(42);
    std::vector<Event> events;
    events.reserve(kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(kNodes));
        const NodeId v = (u + 1) % kNodes;
        events.push_back({u, v, rng.uniform_int(0, kPeriod - 1)});
    }
    return LinkStream(std::move(events), kNodes, kPeriod, false);
}

/// The same ring shape at n = 8192, 2.5 events per node: select_backend
/// picks sparse, while the dense table would take n^2 x 8 B = 512 MiB.
LinkStream ring_stream_8k() {
    constexpr NodeId kNodes = 8192;
    constexpr std::size_t kEvents = 20'480;
    constexpr Time kPeriod = 100'000;
    Rng rng(42);
    std::vector<Event> events;
    events.reserve(kEvents);
    for (std::size_t i = 0; i < kEvents; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(kNodes));
        events.push_back({u, (u + 1) % kNodes, rng.uniform_int(0, kPeriod - 1)});
    }
    return LinkStream(std::move(events), kNodes, kPeriod, false);
}

/// The stream analyses scan their stream's Delta = 1 series through the
/// backend rule too: on the 8192-node ring each stays far below the dense
/// table's 512 MiB.  One TEST per analysis, since peak RSS is per process.
void expect_sparse_footprint(const LinkStream& stream) {
    ASSERT_EQ(select_backend(stream.num_nodes(), aggregate(stream, 1).total_edges(), {}),
              ReachabilityBackend::sparse);
    const double rss = bounded_peak_rss_mib();
    if (rss > 0.0) {
        EXPECT_LT(rss, 128.0) << "peak RSS " << rss << " MiB: a dense table was allocated";
    }
}

TEST(SparseScale, ShortestTransitionsAt8kNodesStaySparse) {
    const auto stream = ring_stream_8k();
    const ShortestTransitionSet transitions(stream);
    EXPECT_EQ(transitions.size(), 16'429u);
    expect_sparse_footprint(stream);
}

TEST(SparseScale, StreamTripStoreAt8kNodesStaysSparse) {
    const auto stream = ring_stream_8k();
    const StreamTripStore store(stream);
    EXPECT_EQ(store.size(), 72'726u);
    EXPECT_EQ(StreamTripStore::count_trips(stream), store.size());
    EXPECT_EQ(StreamTripStore::count_trips(stream, 3), 24'182u);
    expect_sparse_footprint(stream);
}

TEST(SparseScale, ReachabilityCensusAt8kNodesStaysSparse) {
    const auto stream = ring_stream_8k();
    const ReachabilityCensus census = reachability_census(stream);
    EXPECT_EQ(census.reachable_pairs, 40'881u);
    EXPECT_EQ(census.max_out_reach, 17u);
    const ReachabilityCensus aggregated = reachability_census(aggregate(stream, 1000));
    EXPECT_EQ(aggregated.reachable_pairs, 40'257u);
    expect_sparse_footprint(stream);
}

TEST(SparseScale, ElongationCurveAt8kNodesStaysSparse) {
    const auto stream = ring_stream_8k();
    SweepConfig options;
    options.num_threads = 2;
    const auto curve = elongation_curve(stream, {100, 1000}, options);
    ASSERT_EQ(curve.size(), 2u);
    EXPECT_EQ(curve[0].measured_trips, 31'697u);
    EXPECT_EQ(curve[1].measured_trips, 30'989u);

    // The sampled path: a 30,000-trip budget over the ring's 72,726 stream
    // trips keeps the pairs with hash % 3 == 0, on both the store and the
    // series side.  Few ring trips carry most of the elongation sum, so the
    // sampled means sit far from the full ones; they are pinned to the bit.
    options.max_stored_trips = 30'000;
    const auto sampled = elongation_curve(stream, {100, 1000}, options);
    ASSERT_EQ(sampled.size(), 2u);
    EXPECT_EQ(sampled[0].measured_trips, 10'461u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sampled[0].mean_elongation),
              0x3ff9b10e2e2d70e2u);  // 1.6057264140900362
    EXPECT_EQ(sampled[1].measured_trips, 10'214u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sampled[1].mean_elongation),
              0x4009bf5ef6e3ce8bu);  // 3.2184428489943619
    expect_sparse_footprint(stream);
}

TEST(SparseScale, OccupancyHistogramAt200kNodesUnder2GiB) {
    const auto stream = large_sparse_stream();

    // The automatic selection must refuse dense here: 200k^2 x 12 B ~ 480 GB.
    ASSERT_EQ(select_backend(stream.num_nodes(), stream.num_events(), {}),
              ReachabilityBackend::sparse);

    const auto series = aggregate(stream, 10'000);  // 100 windows
    const auto hist = occupancy_histogram(series);

    EXPECT_GT(hist.total(), stream.num_events() / 2);  // every link yields trips
    EXPECT_GT(hist.mean(), 0.0);
    EXPECT_LE(hist.mean(), 1.0);

    const double rss = bounded_peak_rss_mib();
    if (rss > 0.0) {
        EXPECT_LT(rss, 2048.0) << "peak RSS " << rss << " MiB breaches the 2 GiB bound";
    }
}

TEST(SparseScale, StreamModeScanAt200kNodes) {
    // The stream's own minimal trips: a scan of its Delta = 1 series.
    const auto stream = large_sparse_stream();
    SparseTemporalReachability engine;
    std::uint64_t trips = 0;
    engine.scan_series(aggregate(stream, 1), [&](const MinimalTrip&) { ++trips; });
    EXPECT_GT(trips, 0u);
    const double rss = bounded_peak_rss_mib();
    if (rss > 0.0) {
        EXPECT_LT(rss, 2048.0);
    }
}

}  // namespace
}  // namespace natscale

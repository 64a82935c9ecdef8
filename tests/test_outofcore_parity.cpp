// Differential parity: every result computed from an mmap-backed natbin
// EventSource must be bit-identical to the in-memory path — aggregated
// series, occupancy histograms, gamma, and the full Delta-sweep curve —
// across {1, 4} threads x four generated scenarios, one of which resolves
// its larger aggregation periods to the sparse reachability backend.  This
// is the executable form of the out-of-core pipeline's correctness claim.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "gen/registry.hpp"
#include "linkstream/aggregation.hpp"
#include "linkstream/binary_io.hpp"
#include "obs/metrics.hpp"
#include "testing/streams.hpp"
#include "testing/temp_files.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

using testing::TempFileGuard;
using testing::temp_path;

/// Clustered random stream (bursty, duplicate-heavy) — the scenario the two
/// synthetic generators do not cover.
LinkStream burst_scenario(std::uint64_t seed) {
    Rng rng(seed);
    const NodeId n = 30;
    const Time period = 20'000;
    std::vector<Event> events;
    for (std::size_t b = 0; b < 40; ++b) {
        const Time center = rng.uniform_int(100, period - 100);
        for (std::size_t i = 0; i < 12; ++i) {
            const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
            NodeId v = static_cast<NodeId>(rng.uniform_index(n));
            if (u == v) v = (v + 1) % n;
            events.push_back({u, v, center + rng.uniform_int(-80, 80)});
        }
    }
    return LinkStream(std::move(events), n, period, false);
}

std::vector<std::pair<std::string, LinkStream>> scenarios() {
    std::vector<std::pair<std::string, LinkStream>> result;
    result.emplace_back(
        "uniform", gen::generate_stream("uniform:n=25,links=3,T=30000", 11).stream);
    result.emplace_back(
        "two_mode",
        gen::generate_stream("two_mode:n=22,alternations=5,T=24000", 22).stream);
    result.emplace_back("burst", burst_scenario(33));
    result.emplace_back("burst_pairs", testing::burst_pairs_stream());
    return result;
}

/// Round-trips `stream` through a natbin file and returns the mmap-backed
/// LinkStream (plus the guard keeping the file alive).
std::pair<TempFileGuard, LinkStream> mmap_copy(const LinkStream& stream,
                                               const std::string& name) {
    TempFileGuard file(temp_path("natscale_parity_" + name + ".natbin"));
    save_natbin(file.path(), stream);
    LinkStream mapped = open_natbin(file.path()).stream;
    return {std::move(file), std::move(mapped)};
}

void expect_points_bitwise_equal(const std::vector<DeltaPoint>& a,
                                 const std::vector<DeltaPoint>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("curve point " + std::to_string(i));
        EXPECT_EQ(a[i].delta, b[i].delta);
        EXPECT_EQ(a[i].num_trips, b[i].num_trips);
        // Bitwise: the out-of-core path must replay the exact same
        // floating-point accumulation order, so == (not near) is correct.
        EXPECT_EQ(a[i].occupancy_mean, b[i].occupancy_mean);
        EXPECT_EQ(a[i].scores.mk_proximity, b[i].scores.mk_proximity);
        EXPECT_EQ(a[i].scores.std_deviation, b[i].scores.std_deviation);
        EXPECT_EQ(a[i].scores.variation_coefficient, b[i].scores.variation_coefficient);
        EXPECT_EQ(a[i].scores.shannon_entropy, b[i].scores.shannon_entropy);
        EXPECT_EQ(a[i].scores.cre, b[i].scores.cre);
    }
}

TEST(OutOfCoreParity, SaturationSearchAcrossBackendsAndThreads) {
    const obs::Counter& dense_deltas = obs::counter("sweep.dense_deltas");
    const obs::Counter& sparse_deltas = obs::counter("sweep.sparse_deltas");
    const std::uint64_t dense_before = dense_deltas.read();
    const std::uint64_t sparse_before = sparse_deltas.read();
    for (const auto& [name, stream] : scenarios()) {
        const auto [guard, mapped] = mmap_copy(stream, name);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            SCOPED_TRACE(name + " threads " + std::to_string(threads));
            SweepConfig options;
            options.coarse_points = 10;
            options.refine_rounds = 1;
            options.refine_points = 5;
            options.num_threads = threads;

            const SaturationResult in_memory = find_saturation_scale(stream, options);
            const SaturationResult out_of_core = find_saturation_scale(mapped, options);

            EXPECT_EQ(out_of_core.gamma, in_memory.gamma);
            expect_points_bitwise_equal(out_of_core.curve, in_memory.curve);
            EXPECT_EQ(out_of_core.gamma_histogram.counts(),
                      in_memory.gamma_histogram.counts());
            EXPECT_EQ(out_of_core.gamma_histogram.mean(), in_memory.gamma_histogram.mean());
        }
    }
    EXPECT_GT(dense_deltas.read(), dense_before);
    EXPECT_GT(sparse_deltas.read(), sparse_before);
}

TEST(OutOfCoreParity, OccupancyHistogramsAtFixedDeltas) {
    for (const auto& [name, stream] : scenarios()) {
        const auto [guard, mapped] = mmap_copy(stream, name);
        for (const Time delta : {Time{1}, Time{97}, Time{1'000}, Time{10'000}}) {
            SCOPED_TRACE(name + " delta " + std::to_string(delta));
            const Histogram01 expected = occupancy_histogram(stream, delta);
            const Histogram01 actual = occupancy_histogram(mapped, delta);
            EXPECT_EQ(actual.counts(), expected.counts());
            EXPECT_EQ(actual.total(), expected.total());
            EXPECT_EQ(actual.mean(), expected.mean());
            EXPECT_EQ(actual.population_stddev(), expected.population_stddev());
        }
    }
}

TEST(OutOfCoreParity, AggregationStrategiesProduceIdenticalSeries) {
    for (const auto& [name, stream] : scenarios()) {
        const auto [guard, mapped] = mmap_copy(stream, name);
        const DeltaSweepEngine engine(mapped);
        for (const Time delta : {Time{1}, Time{53}, Time{4'096}}) {
            SCOPED_TRACE(name + " delta " + std::to_string(delta));
            const GraphSeries reference = aggregate(stream, delta);
            const GraphSeries series = engine.aggregate(delta);

            ASSERT_EQ(series.num_nonempty_windows(), reference.num_nonempty_windows());
            EXPECT_EQ(series.total_edges(), reference.total_edges());
            const auto a = series.snapshots();
            const auto b = reference.snapshots();
            for (std::size_t i = 0; i < a.size(); ++i) {
                ASSERT_EQ(a[i].k, b[i].k);
                ASSERT_EQ(a[i].edges, b[i].edges);
            }
        }
    }
}

}  // namespace
}  // namespace natscale

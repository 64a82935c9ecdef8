// Differential suite for the packed lexicographic reachability kernel
// (temporal/reachability.hpp) against the pre-packed scalar reference
// (testing/legacy_reachability.hpp): same trips in the same order, same
// final state, same distance accumulation — plus the window-index rank
// compression on adversarial window sets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "linkstream/aggregation.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability.hpp"
#include "temporal/sparse_reachability.hpp"
#include "testing/legacy_reachability.hpp"
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

template <typename Engine, typename Input>
std::vector<MinimalTrip> series_trips(Engine& engine, const Input& input) {
    std::vector<MinimalTrip> trips;
    engine.scan_series(input, [&](const MinimalTrip& t) { trips.push_back(t); });
    return trips;
}

void expect_same_sequence(const std::vector<MinimalTrip>& packed,
                          const std::vector<MinimalTrip>& legacy, const char* what) {
    ASSERT_EQ(packed.size(), legacy.size()) << what;
    for (std::size_t i = 0; i < packed.size(); ++i) {
        ASSERT_EQ(packed[i], legacy[i]) << what << " trip #" << i;
    }
}

TEST(PackedReachability, SeriesTripSequenceIdenticalToLegacy) {
    for (const bool directed : {false, true}) {
        for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
            const auto stream = random_stream(seed, 40, 400, 5'000, directed);
            for (const Time delta : {1, 50, 500, 5'000}) {
                const auto series = aggregate(stream, delta);
                TemporalReachability packed;
                LegacyTemporalReachability legacy;
                expect_same_sequence(series_trips(packed, series),
                                     series_trips(legacy, series), "series");
            }
        }
    }
}

TEST(PackedReachability, StreamTripSequenceIdenticalToLegacy) {
    // A link stream is scanned as its Delta = 1 series.
    for (const bool directed : {false, true}) {
        const auto series = aggregate(random_stream(7, 30, 300, 2'000, directed), 1);
        TemporalReachability packed;
        LegacyTemporalReachability legacy;
        expect_same_sequence(series_trips(packed, series), series_trips(legacy, series),
                             "stream");
    }
}

TEST(PackedReachability, FinalStateDecodesIdenticallyToLegacy) {
    const auto stream = random_stream(11, 25, 200, 1'000, false);
    const auto series = aggregate(stream, 40);
    TemporalReachability packed;
    LegacyTemporalReachability legacy;
    packed.scan_series(series, [](const MinimalTrip&) {});
    legacy.scan_series(series, [](const MinimalTrip&) {});
    // The legacy tables, as rows of their finite cells.
    std::vector<ReachRow> expected(stream.num_nodes());
    for (NodeId u = 0; u < stream.num_nodes(); ++u) {
        for (NodeId v = 0; v < stream.num_nodes(); ++v) {
            if (legacy.arrival(u, v) == kInfiniteTime) continue;
            expected[u].push_back({v, legacy.hop_count(u, v), legacy.arrival(u, v)});
        }
    }
    ASSERT_TRUE(std::any_of(expected.begin(), expected.end(),
                            [](const ReachRow& row) { return !row.empty(); }))
        << "vacuous final state";
    EXPECT_EQ(packed.state_rows(), expected);
}

TEST(PackedReachability, DistanceAccumulationIdenticalToLegacy) {
    // The packed engine decodes ranks back to window labels both per change
    // and when it closes each finite pair at the end of the scan.
    for (const std::uint64_t seed : {3ull, 5ull}) {
        const auto stream = random_stream(seed, 30, 250, 3'000, false);
        const auto series = aggregate(stream, 75);
        DistanceAccumulator packed_distances;
        DistanceAccumulator legacy_distances;
        ReachabilityOptions packed_options;
        packed_options.distances = &packed_distances;
        ReachabilityOptions legacy_options;
        legacy_options.distances = &legacy_distances;
        TemporalReachability packed;
        LegacyTemporalReachability legacy;
        packed.scan_series(series, [](const MinimalTrip&) {}, packed_options);
        legacy.scan_series(series, [](const MinimalTrip&) {}, legacy_options);
        EXPECT_EQ(packed_distances.stats().dtime_sum, legacy_distances.stats().dtime_sum);
        EXPECT_EQ(packed_distances.stats().dhops_sum, legacy_distances.stats().dhops_sum);
        EXPECT_EQ(packed_distances.stats().finite_count,
                  legacy_distances.stats().finite_count);
    }
}

// --- window-index rank compression -------------------------------------------

/// The largest window index: the legacy kernel's kInfiniteTime sentinel is
/// INT64_MAX itself, so the latest window an arrival can name is one less.
constexpr WindowIndex kLastWindow = std::numeric_limits<Time>::max() - 1;

/// Builds a series around window indices that a naive "arrival fits 32 bits"
/// packing would mangle; rank compression must emit trips carrying the
/// original (un-ranked) indices.  Each event's `t` is its window index; the
/// links of one window are deduplicated, as aggregate() does.
GraphSeries adversarial_series(std::vector<Event> events, NodeId n, bool directed) {
    if (!directed) {
        for (auto& e : events) {
            if (e.u > e.v) std::swap(e.u, e.v);
        }
    }
    std::sort(events.begin(), events.end());
    events.erase(std::unique(events.begin(), events.end()), events.end());
    std::vector<Snapshot> snapshots;
    for (const auto& e : events) {
        if (snapshots.empty() || snapshots.back().k != e.t) snapshots.push_back({e.t, {}});
        snapshots.back().edges.emplace_back(e.u, e.v);
    }
    return GraphSeries(n, kLastWindow, 1, directed, std::move(snapshots));
}

std::vector<Event> adversarial_events(std::uint64_t seed, NodeId n, std::size_t count) {
    // Window pool spanning 1 .. kLastWindow: adjacent windows, indices on
    // both sides of 2^32, huge gaps, and heavy duplicates.
    const std::vector<WindowIndex> pool = {
        1,
        2,
        3,
        4,
        5,
        0xFFFFFFFELL,
        0xFFFFFFFFLL,
        0x100000000LL,
        0x100000001LL,
        1'000'000'000'000'000'000LL,
        kLastWindow - 1,
        kLastWindow,
    };
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        events.push_back({u, v, pool[rng.uniform_index(pool.size())]});
    }
    return events;
}

TEST(PackedReachability, RankCompressionMatchesLegacyOnAdversarialTimestamps) {
    for (const bool directed : {false, true}) {
        for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
            const auto series =
                adversarial_series(adversarial_events(seed, 12, 160), 12, directed);
            TemporalReachability packed;
            LegacyTemporalReachability legacy;
            const auto packed_trips = series_trips(packed, series);
            const auto legacy_trips = series_trips(legacy, series);
            expect_same_sequence(packed_trips, legacy_trips, "adversarial");
            ASSERT_FALSE(packed_trips.empty()) << "vacuous adversarial case";
            // Emitted values are original window indices, not ranks: every
            // dep/arr must be the index of a non-empty window.
            std::vector<WindowIndex> windows;
            for (const auto& snapshot : series.snapshots()) windows.push_back(snapshot.k);
            for (const auto& trip : packed_trips) {
                EXPECT_TRUE(std::binary_search(windows.begin(), windows.end(), trip.dep));
                EXPECT_TRUE(std::binary_search(windows.begin(), windows.end(), trip.arr));
            }
        }
    }
}

TEST(PackedReachability, DuplicateHeavyTimestampsMatchLegacy) {
    // Every event in one of two windows, the first and the last: maximal
    // per-instant arc batching across the widest gap.
    std::vector<Event> events;
    Rng rng(42);
    for (int i = 0; i < 200; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(15));
        NodeId v = static_cast<NodeId>(rng.uniform_index(15));
        if (u == v) v = (v + 1) % 15;
        events.push_back({u, v, i % 2 == 0 ? 1 : kLastWindow});
    }
    const auto series = adversarial_series(std::move(events), 15, false);
    EXPECT_EQ(series.num_nonempty_windows(), 2u);
    TemporalReachability packed;
    LegacyTemporalReachability legacy;
    expect_same_sequence(series_trips(packed, series), series_trips(legacy, series),
                         "duplicate-heavy");
}

// --- rows spanning several 64-cell words -------------------------------------
//
// The dense kernel finds the improved cells of a relaxed row 64 columns at a
// time; the cases below put columns past the first word (and, from n = 130,
// past the second) under every entry point.

/// True when some trip reaches a column past the first `words` 64-cell words,
/// so a comparison over `trips` is not vacuous for the later words.
bool reaches_word(const std::vector<MinimalTrip>& trips, NodeId words) {
    return std::any_of(trips.begin(), trips.end(),
                       [&](const MinimalTrip& t) { return t.v >= 64 * words; });
}

TEST(PackedReachability, MultiWordSeriesTripSequenceIdenticalToLegacy) {
    for (const NodeId n : {65u, 130u, 200u}) {
        for (const bool directed : {false, true}) {
            const auto stream = random_stream(n + 5, n, 10 * n, 5'000, directed);
            for (const Time delta : {1, 50, 500}) {
                SCOPED_TRACE("n=" + std::to_string(n) + " directed=" +
                             std::to_string(directed) + " delta=" + std::to_string(delta));
                const auto series = aggregate(stream, delta);
                TemporalReachability packed;
                LegacyTemporalReachability legacy;
                const auto expected = series_trips(legacy, series);
                ASSERT_TRUE(reaches_word(expected, (n - 1) / 64));
                expect_same_sequence(series_trips(packed, series), expected, "series");
            }
        }
    }
}

TEST(PackedReachability, MultiWordStreamTripSequenceIdenticalToLegacy) {
    const auto series = aggregate(random_stream(61, 130, 900, 3'000, false), 1);
    TemporalReachability packed;
    LegacyTemporalReachability legacy;
    const auto expected = series_trips(legacy, series);
    ASSERT_TRUE(reaches_word(expected, 2));
    expect_same_sequence(series_trips(packed, series), expected, "stream");
}

TEST(PackedReachability, MultiWordDistanceAccumulationIdenticalToLegacy) {
    const auto stream = random_stream(67, 130, 1'300, 4'000, false);
    const auto series = aggregate(stream, 40);
    DistanceAccumulator packed_distances;
    DistanceAccumulator legacy_distances;
    ReachabilityOptions packed_options;
    packed_options.distances = &packed_distances;
    ReachabilityOptions legacy_options;
    legacy_options.distances = &legacy_distances;
    TemporalReachability packed;
    LegacyTemporalReachability legacy;
    std::vector<MinimalTrip> packed_trips;
    std::vector<MinimalTrip> legacy_trips;
    packed.scan_series(series, [&](const MinimalTrip& t) { packed_trips.push_back(t); },
                       packed_options);
    legacy.scan_series(series, [&](const MinimalTrip& t) { legacy_trips.push_back(t); },
                       legacy_options);
    ASSERT_TRUE(reaches_word(legacy_trips, 2));
    expect_same_sequence(packed_trips, legacy_trips, "distances");
    EXPECT_EQ(packed_distances.stats().dtime_sum, legacy_distances.stats().dtime_sum);
    EXPECT_EQ(packed_distances.stats().dhops_sum, legacy_distances.stats().dhops_sum);
    EXPECT_EQ(packed_distances.stats().finite_count, legacy_distances.stats().finite_count);
}

TEST(PackedReachability, MultiWordRelaxWindowMatchesSparseRelaxInstant) {
    // The reversed form `watch` and `natscaled` run: window k of the dense
    // kernel against the sparse kernel's instant labelled -k.
    const auto stream = random_stream(73, 130, 1'300, 4'000, false);
    const auto series = aggregate(stream, 40);
    SparseTemporalReachability sparse;
    TemporalReachability dense;
    std::vector<MinimalTrip> expected;
    std::vector<MinimalTrip> got;
    sparse.begin(series.num_nodes());
    dense.begin(series.num_nodes());
    for (const auto& snapshot : series.snapshots()) {
        sparse.relax_instant(snapshot.edges, series.directed(), -snapshot.k,
                             [&](const MinimalTrip& t) { expected.push_back(t); });
        dense.relax_window(snapshot.edges, series.directed(), snapshot.k,
                           [&](const MinimalTrip& t) { got.push_back(t); });
    }
    ASSERT_TRUE(reaches_word(expected, 2));
    expect_same_sequence(got, expected, "reversed");
    EXPECT_EQ(dense.state_rows(), sparse.state_rows());
}

}  // namespace
}  // namespace natscale

// Large-n scale test: a synthetic 200k-node sparse stream must complete a
// full occupancy histogram through the automatically-selected sparse backend
// in well under 2 GB peak RSS.  The dense backend is physically impossible
// here — its tables alone would need n^2 x 12 B ~ 480 GB — so this test is
// the executable form of the sparse backend's reason to exist, and it runs
// in CI with the rest of the suite.
#include <gtest/gtest.h>

#include "core/occupancy.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"
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
    const auto stream = large_sparse_stream();
    SparseTemporalReachability engine;
    std::uint64_t trips = 0;
    engine.scan_stream(stream, [&](const MinimalTrip&) { ++trips; });
    EXPECT_GT(trips, 0u);
    const double rss = bounded_peak_rss_mib();
    if (rss > 0.0) {
        EXPECT_LT(rss, 2048.0);
    }
}

}  // namespace
}  // namespace natscale

// Out-of-core scale regression: a 10^7-event natbin trace on disk (160 MB
// of raw records) must complete a full occupancy histogram through the mmap
// EventSource with peak RSS below HALF the raw trace size — the executable
// form of "stream length is no longer the memory wall".  The trace is
// synthesized straight to disk through the streaming NatbinWriter (never
// materialized in RAM, which would poison the process-lifetime VmHWM this
// test asserts on), then opened via mmap: the open-time validation pass,
// the chunked aggregation and the reachability scan all release pages
// behind themselves.
//
// Like test_sparse_scale, this runs in CI with the rest of the suite (label
// `scale`).  Under ASan, or without a real mmap, the functional pipeline
// still runs — only the RSS bounds are skipped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>

#include "core/occupancy.hpp"
#include "linkstream/aggregation.hpp"
#include "linkstream/binary_io.hpp"
#include "temporal/reachability_backend.hpp"
#include "testing/temp_files.hpp"
#include "util/proc_rss.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

using testing::TempFileGuard;
using testing::temp_path;

constexpr std::uint64_t kEvents = 10'000'000;
constexpr NodeId kNodes = 16'384;
constexpr Time kPeriod = static_cast<Time>(kEvents);  // strictly increasing t
constexpr Time kDelta = kPeriod / 32;                 // 32 aggregation windows

/// Ring-local trace, one event per tick: node hash(i) talks to its ring
/// neighbour at time i.  Strictly increasing timestamps keep the canonical
/// (t, u, v) order trivially true for the streaming writer, and the ring
/// topology keeps per-source reachable sets (and so the scan state) tiny.
void synthesize_natbin(const std::string& path) {
    NatbinWriter writer(path, kNodes, kPeriod, /*directed=*/false);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
        const auto a = static_cast<NodeId>(hash64(i) % kNodes);
        const NodeId b = (a + 1) % kNodes;
        writer.append({std::min(a, b), std::max(a, b), static_cast<Time>(i)});
    }
    writer.finish();
}

TEST(OutOfCoreScale, TenMillionEventHistogramUnderHalfTraceRss) {
    const TempFileGuard file(temp_path("natscale_scale_10m.natbin"));
    try {
        synthesize_natbin(file.path());
    } catch (const std::exception& e) {
        GTEST_SKIP() << "cannot synthesize 160 MB scratch trace: " << e.what();
    }

    const double trace_bytes =
        static_cast<double>(std::filesystem::file_size(file.path()));
    ASSERT_GE(trace_bytes, static_cast<double>(kEvents * kNatbinRecordBytes));

    const auto loaded = open_natbin(file.path());
    const LinkStream& stream = loaded.stream;
    EXPECT_EQ(stream.num_events(), kEvents);
    EXPECT_EQ(stream.num_nodes(), kNodes);
    EXPECT_EQ(stream.period_end(), kPeriod);
    EXPECT_EQ(stream.num_distinct_timestamps(), kEvents);

    const bool real_mmap = !stream.source().memory_resident();

    // The automatic backend must refuse dense here (16384^2 x 12 B ~ 3.2 GB)
    // and the chunked pipeline must be what aggregation picks.
    ASSERT_EQ(select_backend(stream.num_nodes(), stream.num_events(), {}),
              ReachabilityBackend::sparse);

    const auto series = aggregate(stream, kDelta);
    EXPECT_EQ(series.num_windows(), 32);
    const auto hist = occupancy_histogram(series);

    EXPECT_GT(hist.total(), 0u);
    EXPECT_GT(hist.mean(), 0.0);
    EXPECT_LE(hist.mean(), 1.0);

#ifdef NATSCALE_SANITIZED
    GTEST_SKIP() << "functional pipeline verified; RSS bound not meaningful under a sanitizer";
#endif
    if (!real_mmap) {
        GTEST_SKIP() << "no real mmap on this platform; RSS bound not applicable";
    }
    const double rss_bytes = peak_rss_mib() * 1024.0 * 1024.0;
    if (rss_bytes <= 0.0) {
        GTEST_SKIP() << "peak RSS not measurable (no /proc)";
    }
    EXPECT_LT(rss_bytes, trace_bytes / 2.0)
        << "peak RSS " << rss_bytes / (1024 * 1024) << " MiB breaches half the "
        << trace_bytes / (1024 * 1024) << " MiB raw trace";
}

}  // namespace
}  // namespace natscale

// Perf smoke for the observability layer (label: perf): the "provably
// free when disabled" claim as a measured assertion.  With no sink
// installed a Span is one relaxed load and a branch, so the dormant
// instrumentation a sweep carries must cost well under 2% of its
// wall-clock.  Measured two ways:
//
//   1. unit cost: dormant span construct+attr+destruct, ns/op, against a
//      generous absolute bound;
//   2. the sweep-level budget: (dormant unit cost) x (events a traced run
//      of the same sweep emits) < 2% of the sweep's own wall-clock.
//
// Direct A/B timing of two identical binaries is impossible in-process,
// and timing the same code twice only measures scheduler noise — the
// budget formulation bounds the very quantity the 2% acceptance talks
// about while staying deterministic enough for CI.  Skipped under
// sanitizers and unoptimized builds, where per-op costs are meaningless.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/saturation.hpp"
#include "obs/trace.hpp"
#include "testing/temp_files.hpp"
#include "testing/trace_reader.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace natscale {
namespace {

#ifdef NATSCALE_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// Best of `trials` timings of `ops` iterations (minimum: scheduler noise
/// only ever inflates a trial, never deflates it).
template <typename Op>
double best_ns_per_op(std::uint64_t ops, int trials, Op&& op) {
    double best = 1e18;
    for (int trial = 0; trial < trials; ++trial) {
        Stopwatch watch;
        for (std::uint64_t i = 0; i < ops; ++i) op(i);
        best = std::min(best, watch.elapsed_seconds() * 1e9 / static_cast<double>(ops));
    }
    return best;
}

LinkStream perf_stream() {
    Rng rng(7);
    std::vector<Event> events;
    constexpr NodeId kNodes = 40;
    constexpr Time kPeriod = 3'000;
    Time t = 0;
    while (events.size() < 2'000) {
        t += rng.bernoulli(0.3) ? 0 : rng.uniform_int(1, 3);
        if (t >= kPeriod) t = kPeriod - 1;
        auto u = static_cast<NodeId>(rng.uniform_index(kNodes));
        auto v = static_cast<NodeId>(rng.uniform_index(kNodes));
        if (u == v) v = (v + 1) % kNodes;
        if (u > v) std::swap(u, v);
        events.push_back({u, v, t});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        return a.t < b.t || (a.t == b.t && (a.u < b.u || (a.u == b.u && a.v < b.v)));
    });
    return LinkStream(std::move(events), kNodes, kPeriod, false);
}

TEST(ObsPerf, DormantSpanUnitCostIsSmall) {
    if (kSanitized || !kOptimized) {
        GTEST_SKIP() << "per-op cost bounds only hold on optimized, "
                        "uninstrumented builds";
    }
    ASSERT_FALSE(obs::tracing_enabled());
    const double ns = best_ns_per_op(2'000'000, 5, [](std::uint64_t i) {
        obs::Span span("perf.dormant");
        span.attr("i", static_cast<std::int64_t>(i));
    });
    // One relaxed load + branch lands in single-digit ns; 100 ns leaves
    // room for the slowest CI machine while still catching an accidental
    // always-on allocation or lock by two orders of magnitude.
    EXPECT_LT(ns, 100.0) << "dormant span cost regressed to " << ns << " ns/op";
}

TEST(ObsPerf, DormantInstrumentationIsUnderTwoPercentOfSweep) {
    if (kSanitized || !kOptimized) {
        GTEST_SKIP() << "wall-clock budgets only hold on optimized, "
                        "uninstrumented builds";
    }
    ASSERT_FALSE(obs::tracing_enabled());
    const LinkStream stream = perf_stream();
    SweepConfig options;
    options.coarse_points = 10;
    options.refine_rounds = 1;
    options.num_threads = 1;  // single-threaded: additive cost model holds

    // Sweep wall-clock with instrumentation dormant (best of 3).
    double sweep_seconds = 1e18;
    for (int trial = 0; trial < 3; ++trial) {
        Stopwatch watch;
        const SaturationResult result = find_saturation_scale(stream, options);
        ASSERT_GE(result.gamma, 1);
        sweep_seconds = std::min(sweep_seconds, watch.elapsed_seconds());
    }

    // How many spans would that sweep emit if traced?  Run it
    // once with a real sink and count.
    const std::string path = testing::temp_path("obs_perf.trace.json");
    testing::TempFileGuard guard(path);
    {
        obs::TraceSink sink(path);
        obs::install_trace_sink(&sink);
        find_saturation_scale(stream, options);
        obs::install_trace_sink(nullptr);
        sink.close();
    }
    const std::size_t events_traced = testing::read_trace(path).size();
    ASSERT_GT(events_traced, 0u);

    const double dormant_ns = best_ns_per_op(1'000'000, 3, [](std::uint64_t i) {
        obs::Span span("perf.budget");
        span.attr("delta", static_cast<std::int64_t>(i));
    });
    const double dormant_total_seconds =
        dormant_ns * static_cast<double>(events_traced) / 1e9;
    EXPECT_LT(dormant_total_seconds, 0.02 * sweep_seconds)
        << "dormant instrumentation costs " << dormant_total_seconds * 1e3
        << " ms against a " << sweep_seconds * 1e3 << " ms sweep ("
        << events_traced << " instrumentation sites)";
}

}  // namespace
}  // namespace natscale

// Performance benchmark for the minimal-trip backward DP (google-benchmark).
//
// Validates the paper's Section 5 complexity claim — O(nM) time, where n is
// the node count and M the total number of edges over all snapshots — by
// sweeping n at fixed M and M at fixed n: both sweeps should scale linearly.
// Also measures aggregation itself, a full occupancy-histogram pass, and the
// dense-vs-sparse backend crossover (same scan, both backends, n sweep at
// fixed per-node density) that seeds the repo's perf trajectory.
//
// Machine-readable output: pass `--benchmark_out=BENCH_reachability.json
// --benchmark_out_format=json` — every DenseVsSparse point carries n, M,
// trips, the exact per-backend state size, and the RSS grown while the
// point ran as counters, so the crossover curve can be plotted straight
// from the JSON artifact.
//
// A second artifact, BENCH_kernel.json, comes from the ScalarVsSimd suite
// (`--benchmark_filter=ScalarVsSimd`): the same dense scan under every SIMD
// dispatch (one row per ISA; rows for ISAs this machine cannot execute run
// the strongest supported path instead and say so via the
// supported/fallback counters — see docs/simd.md for how to read them).  CI
// uploads both from the Release leg — the in-repo perf trajectory of the
// dense hot path.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/occupancy.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/proc_rss.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace natscale;

LinkStream random_stream(std::uint64_t seed, NodeId n, std::size_t events, Time period) {
    Rng rng(seed);
    std::vector<Event> list;
    list.reserve(events);
    for (std::size_t i = 0; i < events; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        list.push_back({u, v, rng.uniform_int(0, period - 1)});
    }
    return LinkStream(std::move(list), n, period, false);
}

/// O(nM) check, n sweep: M fixed at ~20k edges, n = 64..512.
void BM_MinimalTripScan_NodeSweep(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    const auto stream = random_stream(1, n, 20'000, 100'000);
    const auto series = aggregate(stream, 25);
    TemporalReachability engine;
    std::uint64_t trips = 0;
    for (auto _ : state) {
        trips = 0;
        engine.scan_series(series, [&](const MinimalTrip&) { ++trips; });
        benchmark::DoNotOptimize(trips);
    }
    state.counters["n"] = static_cast<double>(n);
    state.counters["M"] = static_cast<double>(series.total_edges());
    state.counters["trips"] = static_cast<double>(trips);
    state.counters["nM_per_s"] = benchmark::Counter(
        static_cast<double>(n) * static_cast<double>(series.total_edges()),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MinimalTripScan_NodeSweep)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// O(nM) check, M sweep: n fixed at 128, events 5k..80k.
void BM_MinimalTripScan_EdgeSweep(benchmark::State& state) {
    const auto events = static_cast<std::size_t>(state.range(0));
    const auto stream = random_stream(2, 128, events, 200'000);
    const auto series = aggregate(stream, 20);
    TemporalReachability engine;
    for (auto _ : state) {
        std::uint64_t trips = 0;
        engine.scan_series(series, [&](const MinimalTrip&) { ++trips; });
        benchmark::DoNotOptimize(trips);
    }
    state.counters["M"] = static_cast<double>(series.total_edges());
    state.counters["nM_per_s"] = benchmark::Counter(
        128.0 * static_cast<double>(series.total_edges()),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_MinimalTripScan_EdgeSweep)->Arg(5'000)->Arg(20'000)->Arg(80'000)
    ->Unit(benchmark::kMillisecond);

/// Aggregation alone (sort + dedup per window).
void BM_Aggregate(benchmark::State& state) {
    const auto stream = random_stream(4, 256, 100'000, 1'000'000);
    const Time delta = state.range(0);
    for (auto _ : state) {
        const auto series = aggregate(stream, delta);
        benchmark::DoNotOptimize(series.total_edges());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100'000);
}
BENCHMARK(BM_Aggregate)->Arg(1)->Arg(1'000)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

/// Dense-vs-sparse crossover: the same series scan through both backends,
/// sweeping n at a fixed ~4 events/node (the sparse regime of real contact
/// traces).  Filter with --benchmark_filter=DenseVsSparse for the JSON
/// artifact; compare the two curves point by point to read off the
/// crossover.  The dense sweep stops at n = 4096 (state: n^2 x 8 B =
/// 128 MiB); the sparse sweep continues to n = 16384, where dense would
/// need 2 GiB.
LinkStream crossover_stream(NodeId n) {
    return random_stream(6, n, static_cast<std::size_t>(n) * 4, static_cast<Time>(n) * 40);
}

Time crossover_delta(NodeId n) { return static_cast<Time>(n) / 8 + 1; }

GraphSeries crossover_series(NodeId n) {
    return aggregate(crossover_stream(n), crossover_delta(n));
}

void BM_DenseVsSparse_Dense(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    const double rss_before = current_rss_mib();
    const auto series = crossover_series(n);
    TemporalReachability engine;
    std::uint64_t trips = 0;
    for (auto _ : state) {
        trips = 0;
        engine.scan_series(series, [&](const MinimalTrip&) { ++trips; });
        benchmark::DoNotOptimize(trips);
    }
    state.counters["n"] = static_cast<double>(n);
    state.counters["M"] = static_cast<double>(series.total_edges());
    state.counters["trips"] = static_cast<double>(trips);
    state.counters["state_MiB"] = static_cast<double>(n) * static_cast<double>(n) *
                                  static_cast<double>(kDensePairBytes) / (1024.0 * 1024.0);
    // RSS grown while this point ran (series + engine state; approximate —
    // allocator reuse across points undercounts).  state_MiB is the exact
    // per-backend number; process-lifetime VmHWM would be useless here, as
    // every point after the largest one would just inherit its peak.
    state.counters["rss_delta_MiB"] = std::max(0.0, current_rss_mib() - rss_before);
}
BENCHMARK(BM_DenseVsSparse_Dense)->Arg(256)->Arg(1024)->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_DenseVsSparse_Sparse(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    const double rss_before = current_rss_mib();
    const auto series = crossover_series(n);
    SparseTemporalReachability engine;
    std::uint64_t trips = 0;
    for (auto _ : state) {
        trips = 0;
        engine.scan_series(series, [&](const MinimalTrip&) { ++trips; });
        benchmark::DoNotOptimize(trips);
    }
    state.counters["n"] = static_cast<double>(n);
    state.counters["M"] = static_cast<double>(series.total_edges());
    state.counters["trips"] = static_cast<double>(trips);
    std::size_t entries = 0;
    for (const auto& row : engine.state_rows()) entries += row.size();
    state.counters["state_MiB"] = static_cast<double>(entries) *
                                  sizeof(SparseTemporalReachability::Entry) /
                                  (1024.0 * 1024.0);
    state.counters["rss_delta_MiB"] = std::max(0.0, current_rss_mib() - rss_before);
}
BENCHMARK(BM_DenseVsSparse_Sparse)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

/// Scalar vs SIMD dispatch on the identical scan: one row per ISA, the
/// crossover workload at n = 2048, so per-ISA speedup is the ratio
/// of a row against the scalar row of the same suite.  A row whose ISA the
/// machine cannot execute still runs — through the strongest supported path
/// — and records supported=0 fallback=1, so a BENCH_kernel.json from any
/// machine always carries all rows and never silently compares different
/// hardware generations.
void BM_ScalarVsSimd_DenseSeries(benchmark::State& state, SimdIsa isa) {
    const bool supported = simd_isa_supported(isa);
    const SimdIsa previous = active_simd_isa();
    set_simd_isa(supported ? isa : detect_simd_isa());
    const auto series = crossover_series(2048);
    TemporalReachability engine;
    std::uint64_t trips = 0;
    for (auto _ : state) {
        trips = 0;
        engine.scan_series(series, [&](const MinimalTrip&) { ++trips; });
        benchmark::DoNotOptimize(trips);
    }
    state.counters["supported"] = supported ? 1.0 : 0.0;
    state.counters["fallback"] = supported ? 0.0 : 1.0;
    state.counters["n"] = 2048.0;
    state.counters["M"] = static_cast<double>(series.total_edges());
    state.counters["trips"] = static_cast<double>(trips);
    set_simd_isa(previous);
}
BENCHMARK_CAPTURE(BM_ScalarVsSimd_DenseSeries, scalar, SimdIsa::scalar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScalarVsSimd_DenseSeries, avx2, SimdIsa::avx2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScalarVsSimd_DenseSeries, avx512, SimdIsa::avx512)
    ->Unit(benchmark::kMillisecond);

/// One full occupancy-histogram evaluation (aggregate + scan + bin).
void BM_OccupancyHistogram(benchmark::State& state) {
    const auto stream = random_stream(5, 200, 30'000, 500'000);
    const Time delta = state.range(0);
    for (auto _ : state) {
        const auto hist = occupancy_histogram(stream, delta);
        benchmark::DoNotOptimize(hist.total());
    }
}
BENCHMARK(BM_OccupancyHistogram)->Arg(100)->Arg(10'000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

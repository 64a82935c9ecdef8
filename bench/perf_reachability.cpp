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
// A second artifact, BENCH_kernel.json, comes from the PackedVsLegacy,
// ColumnScaling and ScalarVsSimd suites
// (`--benchmark_filter=PackedVsLegacy|ColumnScaling|ScalarVsSimd`):
// the packed 8 B/pair kernel against the retired 12 B scalar kernel on the
// same workloads, a one-period DeltaSweepEngine grid (column-sharded over
// the pool) at 1/2/4/8 threads, and the same dense/sparse scans under every SIMD
// dispatch (one row per ISA; rows for ISAs this machine cannot execute run
// the strongest supported path instead and say so via the supported/fallback
// counters — see docs/simd.md for how to read them).  CI uploads both from
// the Release leg — the in-repo perf trajectory of the dense hot path.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/column_shards.hpp"
#include "temporal/legacy_reachability.hpp"
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

/// Stream-mode scan (validation substrate): distinct-timestamp granularity.
void BM_MinimalTripScan_StreamMode(benchmark::State& state) {
    const auto stream = random_stream(3, 128, static_cast<std::size_t>(state.range(0)),
                                      500'000);
    TemporalReachability engine;
    for (auto _ : state) {
        std::uint64_t trips = 0;
        engine.scan_stream(stream, [&](const MinimalTrip&) { ++trips; });
        benchmark::DoNotOptimize(trips);
    }
}
BENCHMARK(BM_MinimalTripScan_StreamMode)->Arg(10'000)->Arg(40'000)
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
/// crossover.  The dense sweep stops at n = 4096 (state: n^2 x 12 B =
/// 192 MiB); the sparse sweep continues to n = 16384, where dense would
/// need 3 GiB.
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
    state.counters["state_MiB"] = static_cast<double>(engine.num_finite_entries()) *
                                  sizeof(SparseTemporalReachability::Entry) /
                                  (1024.0 * 1024.0);
    state.counters["rss_delta_MiB"] = std::max(0.0, current_rss_mib() - rss_before);
}
BENCHMARK(BM_DenseVsSparse_Sparse)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

/// Packed vs legacy kernel on the crossover workload: the identical series
/// scan through the packed 8 B/pair engine and the retired 12 B scalar
/// reference.  Compare the two curves point by point; the acceptance bar of
/// the packing PR is >= 1.5x single-thread at n = 2048.
void BM_PackedVsLegacy_Packed(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
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
}
BENCHMARK(BM_PackedVsLegacy_Packed)->Arg(256)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_PackedVsLegacy_Legacy(benchmark::State& state) {
    const NodeId n = static_cast<NodeId>(state.range(0));
    const auto series = crossover_series(n);
    LegacyTemporalReachability engine;
    std::uint64_t trips = 0;
    for (auto _ : state) {
        trips = 0;
        engine.scan_series(series, [&](const MinimalTrip&) { ++trips; });
        benchmark::DoNotOptimize(trips);
    }
    state.counters["n"] = static_cast<double>(n);
    state.counters["M"] = static_cast<double>(series.total_edges());
    state.counters["trips"] = static_cast<double>(trips);
    state.counters["state_MiB"] =
        static_cast<double>(n) * static_cast<double>(n) * 12.0 / (1024.0 * 1024.0);
}
BENCHMARK(BM_PackedVsLegacy_Legacy)->Arg(256)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// Scalar vs SIMD dispatch on the identical scan: one row per ISA, same
/// workload as PackedVsLegacy at n = 2048, so per-ISA speedup is the ratio
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
BENCHMARK_CAPTURE(BM_ScalarVsSimd_DenseSeries, neon, SimdIsa::neon)
    ->Unit(benchmark::kMillisecond);

/// Sparse-backend counterpart: candidate generation (copy_bump_second_u32)
/// is the vectorized stage there; n = 4096 keeps the scan in the sparse
/// regime of the crossover sweep.
void BM_ScalarVsSimd_SparseSeries(benchmark::State& state, SimdIsa isa) {
    const bool supported = simd_isa_supported(isa);
    const SimdIsa previous = active_simd_isa();
    set_simd_isa(supported ? isa : detect_simd_isa());
    const auto series = crossover_series(4096);
    SparseTemporalReachability engine;
    std::uint64_t trips = 0;
    for (auto _ : state) {
        trips = 0;
        engine.scan_series(series, [&](const MinimalTrip&) { ++trips; });
        benchmark::DoNotOptimize(trips);
    }
    state.counters["supported"] = supported ? 1.0 : 0.0;
    state.counters["fallback"] = supported ? 0.0 : 1.0;
    state.counters["n"] = 4096.0;
    state.counters["M"] = static_cast<double>(series.total_edges());
    state.counters["trips"] = static_cast<double>(trips);
    set_simd_isa(previous);
}
BENCHMARK_CAPTURE(BM_ScalarVsSimd_SparseSeries, scalar, SimdIsa::scalar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScalarVsSimd_SparseSeries, avx2, SimdIsa::avx2)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScalarVsSimd_SparseSeries, avx512, SimdIsa::avx512)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ScalarVsSimd_SparseSeries, neon, SimdIsa::neon)
    ->Unit(benchmark::kMillisecond);

/// Intra-scan thread scaling: the crossover period of the n = 1024 stream
/// (below kSparseMinNodes, so select_backend resolves it to dense) as a
/// one-point DeltaSweepEngine grid (aggregate + dense scan + bin) at
/// 1/2/4/8 threads.  One period is narrower than any multi-thread pool, so
/// the engine splits the scan into column shards.  The result is
/// bit-identical at every point (enforced by tests/test_scan_parallel.cpp);
/// this measures only the wall-clock curve.
void BM_ColumnScaling_OccupancyHistogram(benchmark::State& state) {
    const auto threads = static_cast<std::size_t>(state.range(0));
    const auto stream = crossover_stream(1024);
    const std::vector<Time> grid = {crossover_delta(1024)};
    DeltaSweepOptions options;
    options.num_threads = threads;
    DeltaSweepEngine engine(stream, options);
    std::uint64_t total = 0;
    for (auto _ : state) {
        total = engine.evaluate(grid).front().num_trips;
        benchmark::DoNotOptimize(total);
    }
    state.counters["threads"] = static_cast<double>(threads);
    state.counters["trips"] = static_cast<double>(total);
    state.counters["shards"] = static_cast<double>(column_shards(1024).size());
}
BENCHMARK(BM_ColumnScaling_OccupancyHistogram)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

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

// Performance benchmark for the end-to-end occupancy method
// (google-benchmark): cost as a function of the Delta-grid resolution and of
// the workload size, and the batched DeltaSweepEngine against the sequential
// per-Delta loop it replaces.  The paper notes the sweep is dominated by the
// small-Delta evaluations (M is largest there); the per-grid-point counters
// expose that.
//
// Before any timing, main() verifies that the batched sweep is bit-identical
// to the sequential per-Delta reference path (same Gamma, same curve scores)
// and aborts if not — the speedup numbers are only meaningful for identical
// results.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/saturation.hpp"
#include "gen/registry.hpp"

namespace {

using namespace natscale;

LinkStream sweep_workload() {
    return gen::generate_stream("replica:dataset=enron,scale=0.2", 7).stream;
}

std::vector<Time> sweep_grid(const LinkStream& stream) {
    return geometric_delta_grid(1, stream.period_end(), 32);
}

/// The pre-DeltaSweepEngine hot path: one independent evaluation per Delta,
/// re-aggregating (per-window sort + dedup) and re-scanning from scratch.
std::vector<DeltaPoint> sequential_sweep(const LinkStream& stream,
                                         const std::vector<Time>& grid,
                                         const SweepConfig& options) {
    std::vector<DeltaPoint> points;
    points.reserve(grid.size());
    for (Time delta : grid) {
        points.push_back(evaluate_delta(stream, delta, options, nullptr));
    }
    return points;
}

/// Sequential per-Delta loop over the full grid (the baseline the batched
/// sweep is measured against).
void BM_DeltaSweep_Sequential(benchmark::State& state) {
    const auto stream = sweep_workload();
    const auto grid = sweep_grid(stream);
    SweepConfig options;
    for (auto _ : state) {
        const auto points = sequential_sweep(stream, grid, options);
        benchmark::DoNotOptimize(points.data());
    }
    state.counters["grid_points"] = static_cast<double>(grid.size());
    state.counters["threads"] = 1;
}
BENCHMARK(BM_DeltaSweep_Sequential)->Unit(benchmark::kMillisecond);

/// Batched sweep at 1, 2, 4, ... threads; Arg is the thread count.
void BM_DeltaSweep_Batched(benchmark::State& state) {
    const auto stream = sweep_workload();
    const auto grid = sweep_grid(stream);
    DeltaSweepOptions options;
    options.num_threads = static_cast<std::size_t>(state.range(0));
    DeltaSweepEngine engine(stream, options);
    for (auto _ : state) {
        const auto points = engine.evaluate(grid);
        benchmark::DoNotOptimize(points.data());
    }
    state.counters["grid_points"] = static_cast<double>(grid.size());
    state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DeltaSweep_Batched)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Full method on a small Enron-like replica, sweeping grid resolution.
void BM_OccupancyMethod_GridResolution(benchmark::State& state) {
    const auto stream = gen::generate_stream("replica:dataset=enron,scale=0.2", 7).stream;
    SweepConfig options;
    options.coarse_points = static_cast<std::size_t>(state.range(0));
    options.refine_rounds = 1;
    options.refine_points = 6;
    for (auto _ : state) {
        const auto result = find_saturation_scale(stream, options);
        benchmark::DoNotOptimize(result.gamma);
    }
    state.counters["grid_points"] = static_cast<double>(options.coarse_points);
}
BENCHMARK(BM_OccupancyMethod_GridResolution)->Arg(12)->Arg(24)->Arg(48)
    ->Unit(benchmark::kMillisecond);

/// Full method vs workload size (time-uniform networks).
void BM_OccupancyMethod_WorkloadSize(benchmark::State& state) {
    const auto stream =
        gen::generate_stream("uniform:n=" + std::to_string(state.range(0)) +
                                 ",links=6,T=50000",
                             3)
            .stream;
    SweepConfig options;
    options.coarse_points = 24;
    options.refine_rounds = 1;
    options.refine_points = 6;
    for (auto _ : state) {
        const auto result = find_saturation_scale(stream, options);
        benchmark::DoNotOptimize(result.gamma);
    }
    state.counters["events"] = static_cast<double>(stream.num_events());
}
BENCHMARK(BM_OccupancyMethod_WorkloadSize)->Arg(20)->Arg(40)->Arg(80)
    ->Unit(benchmark::kMillisecond);

/// Single-Delta evaluation (the sweep's unit of work).
void BM_EvaluateDelta(benchmark::State& state) {
    const auto stream =
        gen::generate_stream("replica:dataset=manufacturing,scale=0.2", 9).stream;
    SweepConfig options;
    const Time delta = state.range(0);
    for (auto _ : state) {
        const auto point = evaluate_delta(stream, delta, options, nullptr);
        benchmark::DoNotOptimize(point.num_trips);
    }
}
BENCHMARK(BM_EvaluateDelta)->Arg(60)->Arg(3'600)->Arg(86'400)
    ->Unit(benchmark::kMillisecond);

bool identical(const DeltaPoint& a, const DeltaPoint& b) {
    return a.delta == b.delta && a.num_trips == b.num_trips &&
           a.occupancy_mean == b.occupancy_mean &&
           a.scores.mk_proximity == b.scores.mk_proximity &&
           a.scores.std_deviation == b.scores.std_deviation &&
           a.scores.variation_coefficient == b.scores.variation_coefficient &&
           a.scores.shannon_entropy == b.scores.shannon_entropy &&
           a.scores.cre == b.scores.cre;
}

/// Batched == sequential, bitwise, at the maximum benched thread count.
bool verify_batched_matches_sequential() {
    const auto stream = sweep_workload();
    const auto grid = sweep_grid(stream);
    const auto sequential = sequential_sweep(stream, grid, SweepConfig{});
    DeltaSweepOptions options;
    options.num_threads = 8;
    DeltaSweepEngine engine(stream, options);
    const auto batched = engine.evaluate(grid);
    if (batched.size() != sequential.size()) return false;
    for (std::size_t i = 0; i < batched.size(); ++i) {
        if (!identical(batched[i], sequential[i])) {
            std::fprintf(stderr, "mismatch at delta=%lld\n",
                         static_cast<long long>(grid[i]));
            return false;
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    if (!verify_batched_matches_sequential()) {
        std::fprintf(stderr,
                     "FATAL: batched sweep differs from the sequential per-Delta loop; "
                     "timings would be meaningless\n");
        return 1;
    }
    std::printf("verified: batched sweep bit-identical to sequential per-Delta loop "
                "(hardware threads: %u)\n",
                std::thread::hardware_concurrency());
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

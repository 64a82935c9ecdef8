// search_uniform and search_sparse: wall-clock of find_saturation_scale.
//
// The traced run drives find_saturation_scale_with through a GridEvaluator
// of its own that does what DeltaSweepEngine::evaluate does, one public call
// per stage, and times each call:
//
//   linkstream.aggregate   DeltaSweepEngine::aggregate(delta)
//   temporal.relax_emit    count_minimal_trips(series): relax+emit, count-only sink
//   stats.histogram        occupancy_histogram(series): relax+emit+accumulate
//   core.score             score_delta_point
//
// Accumulate time is histogram - relax_emit on the same series.  The traced
// search must return the same gamma and curve as the untraced one.
#include <exception>
#include <filesystem>
#include <optional>
#include <span>

#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "linkstream/binary_io.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/proc_rss.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

using natscale::DeltaPoint;
using natscale::Histogram01;
using natscale::LinkStream;
using natscale::SaturationResult;
using natscale::SweepConfig;
using natscale::Time;

namespace {

constexpr int kSetupsPerOp = 5;
constexpr const char* kNatbinPath = "input.natbin";

/// The search input: the generated stream in RAM, or its natbin copy
/// reopened through the mmap loader.
struct SearchInput {
    std::optional<LinkStream> in_memory;
    std::optional<natscale::LoadedStream> mapped;

    const LinkStream& stream() const { return mapped ? mapped->stream : *in_memory; }
};

struct SetupTimes {
    double total_s = 0.0;
    double generate_s = 0.0;
    double save_s = 0.0;
    double open_s = 0.0;
};

SetupTimes set_up(const RunOptions& options, const Workload& workload, SearchInput& input,
                  Tracer* tracer) {
    input = SearchInput{};
    SetupTimes times;
    Scope setup(tracer, "setup");
    LinkStream generated = make_input(workload, options.size, options.gen_seed,
                                      options.seed, &times.generate_s);
    if (workload.kind == WorkloadKind::search_natbin) {
        Scope save(tracer, "linkstream.save_natbin", setup.id());
        natscale::save_natbin(kNatbinPath, generated);
        times.save_s = save.close();
        Scope open(tracer, "linkstream.open_natbin", setup.id());
        input.mapped.emplace(natscale::open_natbin(kNatbinPath));
        times.open_s = open.close();
    } else {
        input.in_memory.emplace(std::move(generated));
    }
    times.total_s = setup.close();
    return times;
}

/// Per-operation layer totals of one traced search.
struct SearchLayers {
    double index_s = 0.0;
    double aggregate_s = 0.0;
    double relax_emit_s = 0.0;
    double histogram_s = 0.0;
    double score_s = 0.0;
    double evaluate_s = 0.0;
    double busy_s = 0.0;
    double search_s = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t edges = 0;
    std::uint64_t trips = 0;
    std::uint64_t histogram_trips = 0;
    std::uint64_t dense_scans = 0;
    std::uint64_t sparse_scans = 0;
    std::uint64_t rounds = 0;
    std::uint64_t deltas = 0;

    Metrics metrics() const {
        const double accumulate_s = histogram_s - relax_emit_s;
        return {
            {"linkstream.index_s", index_s},
            {"linkstream.aggregate_s", aggregate_s},
            {"linkstream.windows", static_cast<double>(windows)},
            {"linkstream.edges", static_cast<double>(edges)},
            {"temporal.relax_emit_s", relax_emit_s},
            {"temporal.trips", static_cast<double>(trips)},
            {"temporal.dense_scans", static_cast<double>(dense_scans)},
            {"temporal.sparse_scans", static_cast<double>(sparse_scans)},
            {"stats.accumulate_s", accumulate_s},
            {"stats.accumulate_share", histogram_s > 0.0 ? accumulate_s / histogram_s : 0.0},
            {"core.evaluate_s", evaluate_s},
            {"core.busy_s", busy_s},
            {"core.score_s", score_s},
            {"core.search_overhead_s", search_s - evaluate_s},
            {"core.rounds", static_cast<double>(rounds)},
            {"core.deltas", static_cast<double>(deltas)},
        };
    }
};

/// What one period's task measured; summed into SearchLayers after each
/// round (tasks write only their own slot).
struct DeltaStage {
    double aggregate_s = 0.0;
    double relax_emit_s = 0.0;
    double histogram_s = 0.0;
    double score_s = 0.0;
    double busy_s = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t edges = 0;
    std::uint64_t trips = 0;
    std::uint64_t histogram_trips = 0;
    bool dense = false;
};

SaturationResult traced_search(const LinkStream& stream, const SweepConfig& config,
                               Tracer* tracer, SearchLayers& layers) {
    Scope op(tracer, "search");
    Scope index(tracer, "linkstream.engine_index", op.id());
    const natscale::DeltaSweepEngine engine(stream, natscale::sweep_options_of(config));
    layers.index_s = index.close();
    natscale::ThreadPool pool(config.num_threads);

    const natscale::GridEvaluator evaluate =
        [&](std::span<const Time> grid, std::vector<Histogram01>* histograms_out) {
            Scope round(tracer, "core.evaluate", op.id());
            std::vector<DeltaPoint> points(grid.size());
            std::vector<Histogram01> histograms(grid.size(),
                                                Histogram01(config.histogram_bins));
            std::vector<DeltaStage> stages(grid.size());
            pool.parallel_for(grid.size(), [&](std::size_t i) {
                DeltaStage& stage = stages[i];
                Scope task(tracer, "core.delta", round.id());
                Scope aggregate(tracer, "linkstream.aggregate", task.id());
                const natscale::GraphSeries series = engine.aggregate(grid[i]);
                stage.aggregate_s = aggregate.close();
                stage.windows = series.num_nonempty_windows();
                stage.edges = series.total_edges();
                stage.dense = natscale::select_backend(series.num_nodes(), series.total_edges(),
                                                       natscale::ReachabilityOptions{}) ==
                              natscale::ReachabilityBackend::dense;

                Scope relax(tracer, "temporal.relax_emit", task.id());
                stage.trips = natscale::count_minimal_trips(series);
                stage.relax_emit_s = relax.close();

                Scope histogram(tracer, "stats.occupancy_histogram", task.id());
                histograms[i] = natscale::occupancy_histogram(series, config.histogram_bins);
                stage.histogram_s = histogram.close();
                stage.histogram_trips = histograms[i].total();

                Scope score(tracer, "core.score", task.id());
                points[i] = natscale::score_delta_point(grid[i], histograms[i],
                                                        config.shannon_slots);
                stage.score_s = score.close();
                stage.busy_s = task.close();
            });
            for (const DeltaStage& stage : stages) {
                layers.aggregate_s += stage.aggregate_s;
                layers.relax_emit_s += stage.relax_emit_s;
                layers.histogram_s += stage.histogram_s;
                layers.score_s += stage.score_s;
                layers.busy_s += stage.busy_s;
                layers.windows += stage.windows;
                layers.edges += stage.edges;
                layers.trips += stage.trips;
                layers.histogram_trips += stage.histogram_trips;
                ++(stage.dense ? layers.dense_scans : layers.sparse_scans);
            }
            ++layers.rounds;
            layers.deltas += grid.size();
            if (histograms_out != nullptr) *histograms_out = std::move(histograms);
            layers.evaluate_s += round.close();
            return points;
        };

    Scope search(tracer, "core.find_saturation_scale_with", op.id());
    SaturationResult result =
        natscale::find_saturation_scale_with(evaluate, 1, stream.period_end(), config);
    layers.search_s = search.close();
    return result;
}

/// Differences between two search results, point by point.
std::vector<std::string> compare_results(const SaturationResult& traced,
                                         const SaturationResult& untraced) {
    std::vector<std::string> mismatches;
    if (traced.gamma != untraced.gamma) mismatches.push_back("traced gamma differs");
    if (traced.curve.size() != untraced.curve.size() ||
        curve_hash(traced.curve) != curve_hash(untraced.curve)) {
        mismatches.push_back("traced curve differs");
    }
    return mismatches;
}

/// Runs `op` as one counted operation: exceptions fail it.
template <typename Op>
void counted(RunResult& result, Op&& op) {
    try {
        result.count_op(op());
    } catch (const std::exception& error) {
        result.count_op({std::string("exception: ") + error.what()});
    }
}

}  // namespace

RunResult run_search(const RunOptions& options, const Workload& workload, Tracer* tracer) {
    RunResult result;
    const KnownAnswer expected =
        known_answer(workload, options.size, options.gen_seed, options.corrupt_expected);

    // Every search gets a freshly set-up input, so set-up samples spread over
    // the whole window like the searches do.
    SearchInput input;
    std::vector<double> setup_s, generate_s, save_s, open_s;
    const auto prepare = [&] {
        for (int i = 0; i < kSetupsPerOp; ++i) {
            const SetupTimes times = set_up(options, workload, input, tracer);
            setup_s.push_back(times.total_s);
            generate_s.push_back(times.generate_s);
            save_s.push_back(times.save_s);
            open_s.push_back(times.open_s);
        }
    };
    prepare();
    result.facts["events"] = std::to_string(input.stream().num_events());
    result.facts["nodes"] = std::to_string(input.stream().num_nodes());

    SweepConfig config;
    config.num_threads = kSearchThreads;

    // Warm-up, outside the window; in a traced run it is also the untraced
    // reference the traced searches must reproduce.
    SaturationResult reference;
    counted(result, [&] {
        reference = natscale::find_saturation_scale(input.stream(), config);
        return check_answer(reference, expected);
    });

    std::vector<double> walls;
    std::vector<Metrics> traced;
    const Clock::time_point window = Clock::now();
    do {
        prepare();
        const LinkStream& stream = input.stream();
        if (tracer == nullptr) {
            counted(result, [&] {
                const Clock::time_point started = Clock::now();
                const SaturationResult answer = natscale::find_saturation_scale(stream, config);
                walls.push_back(seconds_since(started));
                return check_answer(answer, expected);
            });
        } else {
            counted(result, [&] {
                SearchLayers layers;
                const SaturationResult answer = traced_search(stream, config, tracer, layers);
                traced.push_back(layers.metrics());
                std::vector<std::string> failures = check_answer(answer, expected);
                for (std::string& failure : compare_results(answer, reference)) {
                    failures.push_back(std::move(failure));
                }
                if (layers.trips != layers.histogram_trips) {
                    failures.push_back("count_minimal_trips disagrees with the histogram total");
                }
                return failures;
            });
        }
    } while (seconds_since(window) < options.seconds);

    if (workload.kind == WorkloadKind::search_natbin) std::filesystem::remove(kNatbinPath);

    if (tracer == nullptr) {
        result.metrics["wall_s"] = median(walls);
        result.metrics["setup_s"] = median(setup_s);
        result.metrics["peak_rss_mib"] = natscale::peak_rss_mib();
        result.metrics["query_p50_ms"] = 1e3 * median(walls);
        result.metrics["query_p90_ms"] = 1e3 * quantile(walls, 0.9);
        result.facts["query_samples"] = std::to_string(walls.size());
        result.facts["op_wall_s"] = join(walls);
        return result;
    }

    result.set_medians(traced);
    result.metrics["gen.generate_s"] = median(generate_s);
    result.metrics["linkstream.save_s"] = median(save_s);
    result.metrics["linkstream.open_s"] = median(open_s);
    return result;
}

}  // namespace perfbench

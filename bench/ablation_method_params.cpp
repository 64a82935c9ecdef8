// Ablation: sensitivity of the returned saturation scale to the method's
// internal knobs — the claim "fully automatic and does not require any
// parameter as input" (Section 1.1) deserves a check that the knobs that DO
// exist (histogram resolution, grid resolution, refinement budget, Shannon
// slot count) barely move gamma.
//
// Three sweeps on the Irvine replica:
//   1. histogram bins: 100 .. 7200 (metric discretization error),
//   2. coarse grid points: 16 .. 64 (+ refinement on/off),
//   3. Shannon slots: 5 / 10 / 20 / 100 (the Section 7 sensitivity study —
//      the one knob the paper itself flags as problematic).
#include <vector>

#include "bench_common.hpp"
#include "core/saturation.hpp"
#include "util/table.hpp"

using namespace natscale;
using namespace natscale::bench;

int main(int argc, char** argv) {
    const BenchConfig config = parse_args(argc, argv);
    banner(config, "Ablation: occupancy-method parameter sensitivity (Irvine)");
    Stopwatch watch;

    const LinkStream stream =
        replica_stream("irvine", config.paper_scale ? 1.0 : 0.25, config.seed);

    // --- 1. Histogram resolution ---------------------------------------------
    std::printf("\n[1] histogram bins (M-K metric discretization)\n");
    ConsoleTable bins_table({"bins", "gamma", "M-K prox at gamma"});
    DataSeries bins_series;
    bins_series.name = "ablation: gamma vs histogram bins";
    bins_series.column_names = {"bins", "gamma_s"};
    for (std::size_t bins : {100u, 400u, 1200u, 3600u, 7200u}) {
        SweepConfig options;
        options.coarse_points = 24;
        options.refine_rounds = 1;
        options.histogram_bins = bins;
        const auto result = find_saturation_scale(stream, options);
        bins_table.add_row({std::to_string(bins),
                            format_duration(static_cast<double>(result.gamma)),
                            format_fixed(result.at_gamma.scores.mk_proximity, 4)});
        bins_series.rows.push_back({static_cast<double>(bins),
                                    static_cast<double>(result.gamma)});
    }
    bins_table.print(std::cout);
    write_dat(dat_path(config, "ablation_bins"), bins_series);

    // --- 2. Grid resolution and refinement ------------------------------------
    std::printf("\n[2] Delta-grid resolution\n");
    ConsoleTable grid_table({"coarse points", "refinement", "gamma", "evaluations"});
    for (std::size_t points : {16u, 24u, 48u, 64u}) {
        for (std::size_t rounds : {0u, 2u}) {
            SweepConfig options;
            options.coarse_points = points;
            options.refine_rounds = rounds;
            options.refine_points = 8;
            const auto result = find_saturation_scale(stream, options);
            grid_table.add_row({std::to_string(points), rounds == 0 ? "off" : "2 rounds",
                                format_duration(static_cast<double>(result.gamma)),
                                std::to_string(result.curve.size())});
        }
    }
    grid_table.print(std::cout);

    // --- 3. Shannon slots (Section 7's sensitivity complaint) -----------------
    std::printf("\n[3] Shannon slot count (gamma selected BY the Shannon metric)\n");
    ConsoleTable shannon_table({"slots", "gamma (Shannon)", "gamma (M-K, reference)"});
    for (std::size_t slots : {5u, 10u, 20u, 100u}) {
        SweepConfig options;
        options.coarse_points = 32;
        options.refine_rounds = 1;
        options.shannon_slots = slots;
        options.metric = UniformityMetric::shannon_entropy;
        const auto result = find_saturation_scale(stream, options);
        shannon_table.add_row({std::to_string(slots),
                               format_duration(static_cast<double>(result.gamma)),
                               format_duration(static_cast<double>(
                                   result.gamma_for(UniformityMetric::mk_proximity)))});
    }
    shannon_table.print(std::cout);
    std::printf("\nexpected: gamma stable across [1] and [2]; [3] drifts with the slot\n"
                "count, reproducing why Section 7 rejects Shannon entropy as the default.\n");
    footer(watch, config, "ablation_bins.dat");
    return 0;
}

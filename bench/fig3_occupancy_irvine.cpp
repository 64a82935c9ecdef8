// Reproduces paper Fig. 3 (Irvine network):
//   left:  inverse cumulative distributions (ICD) of the occupancy rates of
//          minimal trips for increasing aggregation periods — the
//          stretch-then-contract phenomenon;
//   right: M-K proximity of those distributions with the uniform density,
//          whose maximum defines the saturation scale gamma (18h on the
//          real trace).
#include <vector>

#include "bench_common.hpp"
#include "core/delta_sweep.hpp"
#include "core/saturation.hpp"
#include "util/table.hpp"

using namespace natscale;
using namespace natscale::bench;

int main(int argc, char** argv) {
    const BenchConfig config = parse_args(argc, argv);
    banner(config, "Fig 3: occupancy-rate ICDs and M-K proximity (Irvine)");
    Stopwatch watch;

    const LinkStream stream =
        replica_stream("irvine", config.paper_scale ? 1.0 : 0.35, config.seed);

    // Right panel: the full metric curve and gamma.
    SweepConfig options;
    options.coarse_points = config.paper_scale ? 48 : 28;
    options.refine_rounds = 2;
    options.refine_points = config.paper_scale ? 12 : 8;
    const SaturationResult result = find_saturation_scale(stream, options);

    std::printf("gamma = %s (paper, real trace: 18h)\n\n",
                format_duration(static_cast<double>(result.gamma)).c_str());

    ConsoleTable curve_table({"Delta", "M-K proximity", "minimal trips"});
    DataSeries mk_series;
    mk_series.name = "fig3 right: M-K proximity vs Delta, Irvine replica";
    mk_series.column_names = {"delta_s", "mk_proximity"};
    for (const auto& point : result.curve) {
        curve_table.add_row({format_duration(static_cast<double>(point.delta)),
                             format_fixed(point.scores.mk_proximity, 4),
                             format_count(point.num_trips)});
        mk_series.rows.push_back({static_cast<double>(point.delta),
                                  point.scores.mk_proximity});
    }
    curve_table.print(std::cout);
    write_dat(dat_path(config, "fig3_mk_proximity"), mk_series);

    // Left panel: ICDs for a family of Delta spanning the range, including
    // gamma (the paper's green-squares curve).
    std::vector<Time> icd_deltas;
    for (int power = 0; power < 7; ++power) {
        const Time delta = result.gamma >> (6 - power);  // gamma/64 .. gamma
        if (delta >= 1 && (icd_deltas.empty() || delta > icd_deltas.back())) {
            icd_deltas.push_back(delta);
        }
    }
    for (Time delta : {result.gamma * 8, result.gamma * 64}) {
        if (delta <= stream.period_end()) icd_deltas.push_back(delta);
    }
    icd_deltas.push_back(stream.period_end());

    // All ICD periods in one batched, parallel sweep.
    DeltaSweepEngine engine(stream, sweep_options_of(options));
    std::vector<Histogram01> icd_histograms;
    engine.evaluate(icd_deltas, &icd_histograms);

    std::vector<DataSeries> icd_blocks;
    std::printf("\nICD summary (left panel): proportion of trips with occ > x\n");
    ConsoleTable icd_table({"Delta", "P(occ>0.1)", "P(occ>0.5)", "P(occ>0.9)", "mean occ"});
    for (std::size_t d = 0; d < icd_deltas.size(); ++d) {
        const Time delta = icd_deltas[d];
        const Histogram01& hist = icd_histograms[d];
        const auto surv = hist.survival_at_edges();
        const std::size_t bins = hist.num_bins();
        auto survival_at = [&](double x) {
            return surv[static_cast<std::size_t>(x * static_cast<double>(bins))];
        };
        icd_table.add_row({format_duration(static_cast<double>(delta)),
                           format_fixed(survival_at(0.1), 3),
                           format_fixed(survival_at(0.5), 3),
                           format_fixed(survival_at(0.9), 3),
                           format_fixed(hist.mean(), 3)});
        DataSeries block;
        block.name = "ICD at Delta=" + format_duration(static_cast<double>(delta)) +
                     (delta == result.gamma ? " (gamma)" : "");
        block.column_names = {"occupancy", "icd"};
        for (const auto& [x, y] : hist.icd_points()) block.rows.push_back({x, y});
        icd_blocks.push_back(std::move(block));
    }
    icd_table.print(std::cout);
    write_dat_blocks(dat_path(config, "fig3_icd"), icd_blocks);

    std::printf("\nshape check: the distribution stretches towards the uniform (max\n"
                "M-K proximity %.3f at gamma) then contracts onto occ = 1 at Delta = T\n",
                result.at_gamma.scores.mk_proximity);
    footer(watch, config, "fig3_mk_proximity.dat, fig3_icd.dat");
    return 0;
}

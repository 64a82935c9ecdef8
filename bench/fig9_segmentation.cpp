// Extension experiment (paper Section 9, second perspective): per-regime
// saturation scales on temporally heterogeneous streams.
//
// On two-mode networks (the Fig. 6 right workload), the global occupancy
// method keeps gamma close to the high-activity scale until the low-activity
// share rho reaches ~80%, then drifts to the low-activity scale — so for
// very large rho the highly active parts get smoothed out.  The
// segmentation extension splits the regimes first and returns BOTH scales;
// its recommendation min(gamma_high, gamma_low) protects the active parts
// at every rho, which is exactly the improvement the paper calls for.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/segmentation.hpp"
#include "util/table.hpp"

using namespace natscale;
using namespace natscale::bench;

int main(int argc, char** argv) {
    const BenchConfig config = parse_args(argc, argv);
    banner(config, "Fig 9 (extension): segmentation vs global occupancy method");
    Stopwatch watch;

    const std::string two_mode_base =
        "two_mode:n=" + std::to_string(config.paper_scale ? 100 : 40) +
        ",alternations=10,links_high=12,links_low=1,T=100000";

    SweepConfig sat;
    sat.coarse_points = config.paper_scale ? 40 : 24;
    sat.refine_rounds = 1;
    sat.refine_points = 8;
    SegmentationOptions seg;
    seg.probe_bins = 200;  // 20 probe bins per alternation cycle

    const std::vector<double> shares =
        config.paper_scale ? std::vector<double>{0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 1.0}
                           : std::vector<double>{0.0, 0.4, 0.8, 0.9, 1.0};

    ConsoleTable table({"% low-activity", "global gamma", "gamma_high", "gamma_low",
                        "recommended", "segments"});
    DataSeries series;
    series.name = "fig9: global vs segmented saturation scales, two-mode";
    series.column_names = {"low_share_pct", "global_gamma", "gamma_high", "gamma_low",
                           "recommended"};
    for (double share : shares) {
        const LinkStream stream =
            gen::generate_stream(two_mode_base + ",low_share=" + spec_number(share),
                                 config.seed)
                .stream;

        const Time global = find_saturation_scale(stream, sat).gamma;
        const auto segmented = find_segmented_saturation(stream, seg, sat);

        table.add_row({format_fixed(share * 100.0, 0) + "%", std::to_string(global),
                       std::to_string(segmented.gamma_high),
                       std::to_string(segmented.gamma_low),
                       std::to_string(segmented.recommended),
                       std::to_string(segmented.segments.size())});
        series.rows.push_back({share * 100.0, static_cast<double>(global),
                               static_cast<double>(segmented.gamma_high),
                               static_cast<double>(segmented.gamma_low),
                               static_cast<double>(segmented.recommended)});
    }
    table.print(std::cout);
    write_dat(dat_path(config, "fig9_segmentation"), series);

    std::printf("\nreading: the global gamma abandons the high-activity scale as rho -> 1;\n"
                "the segmented recommendation tracks gamma_high at every rho, protecting\n"
                "the information-dense periods (the improvement Section 9 asks for).\n");
    footer(watch, config, "fig9_segmentation.dat");
    return 0;
}

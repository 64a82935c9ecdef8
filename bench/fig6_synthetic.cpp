// Reproduces paper Fig. 6 (synthetic networks):
//   left:  time-uniform networks — saturation scale vs mean inter-contact
//          time T/(N(n-1)); the paper finds a clean proportionality;
//   right: two-mode networks — saturation scale vs percentage of
//          low-activity time rho; the paper finds a plateau at the
//          high-activity gamma until rho ~ 70-80%, then a rise to the
//          low-activity gamma.
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/saturation.hpp"
#include "util/table.hpp"

using namespace natscale;
using namespace natscale::bench;

int main(int argc, char** argv) {
    const BenchConfig config = parse_args(argc, argv);
    banner(config, "Fig 6: saturation scale on synthetic networks");
    Stopwatch watch;

    SweepConfig options;
    options.coarse_points = config.paper_scale ? 40 : 28;
    options.refine_rounds = 2;
    options.refine_points = 8;

    // --- Left: time-uniform networks ----------------------------------------
    std::printf("\n[left] time-uniform networks: gamma vs mean inter-contact time\n");
    const NodeId n_uniform = config.paper_scale ? 100 : 50;
    const std::size_t n_steps = config.paper_scale ? 10 : 6;

    ConsoleTable left_table({"N links/pair", "intercontact (s)", "gamma (s)",
                             "gamma/intercontact"});
    DataSeries left_series;
    left_series.name = "fig6 left: gamma vs mean inter-contact time, time-uniform";
    left_series.column_names = {"intercontact_s", "gamma_s"};
    std::vector<double> ratios;
    for (std::size_t step = 1; step <= n_steps; ++step) {
        const std::size_t links = step * 10;
        const auto generated = gen::generate_stream(
            "uniform:n=" + std::to_string(n_uniform) + ",links=" + std::to_string(links) +
                ",T=100000",
            config.seed + step);
        const LinkStream& stream = generated.stream;
        const Time gamma = find_saturation_scale(stream, options).gamma;
        const double intercontact = generated.truth.facts.at("mean_intercontact");
        left_table.add_row({std::to_string(links),
                            format_fixed(intercontact, 1),
                            std::to_string(gamma),
                            format_fixed(static_cast<double>(gamma) / intercontact, 3)});
        left_series.rows.push_back({intercontact, static_cast<double>(gamma)});
        ratios.push_back(static_cast<double>(gamma) / intercontact);
    }
    left_table.print(std::cout);
    write_dat(dat_path(config, "fig6_left_uniform"), left_series);

    double ratio_min = ratios.front(), ratio_max = ratios.front();
    for (double r : ratios) {
        ratio_min = std::min(ratio_min, r);
        ratio_max = std::max(ratio_max, r);
    }
    std::printf("proportionality check: gamma/intercontact in [%.3f, %.3f] "
                "(paper: a straight line through the origin)\n",
                ratio_min, ratio_max);

    // --- Right: two-mode networks --------------------------------------------
    std::printf("\n[right] two-mode networks: gamma vs %% of low-activity time\n");
    const std::string two_mode_base =
        "two_mode:n=" + std::to_string(config.paper_scale ? 100 : 40) +
        ",alternations=10,links_high=12,links_low=1,T=100000";

    const std::vector<double> shares =
        config.paper_scale
            ? std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
            : std::vector<double>{0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0};

    ConsoleTable right_table({"% low-activity", "gamma (s)"});
    DataSeries right_series;
    right_series.name = "fig6 right: gamma vs low-activity share, two-mode";
    right_series.column_names = {"low_share_pct", "gamma_s"};
    std::vector<Time> gammas;
    for (double share : shares) {
        const LinkStream stream =
            gen::generate_stream(two_mode_base + ",low_share=" + spec_number(share),
                                 config.seed)
                .stream;
        const Time gamma = find_saturation_scale(stream, options).gamma;
        right_table.add_row({format_fixed(share * 100.0, 0) + "%", std::to_string(gamma)});
        right_series.rows.push_back({share * 100.0, static_cast<double>(gamma)});
        gammas.push_back(gamma);
    }
    right_table.print(std::cout);
    write_dat(dat_path(config, "fig6_right_twomode"), right_series);

    // Plateau check: gamma at 70-80% low activity stays near the pure
    // high-activity value, far below the pure low-activity value.
    const Time gamma_high = gammas.front();
    const Time gamma_low = gammas.back();
    Time gamma_mid = gammas[gammas.size() / 2];
    for (std::size_t i = 0; i < shares.size(); ++i) {
        if (shares[i] >= 0.69 && shares[i] <= 0.81) gamma_mid = gammas[i];
    }
    std::printf("\nplateau check: gamma(high)=%lld, gamma(rho~0.7-0.8)=%lld, "
                "gamma(low)=%lld\n(paper: the middle value stays close to the high-activity "
                "one)\n",
                static_cast<long long>(gamma_high), static_cast<long long>(gamma_mid),
                static_cast<long long>(gamma_low));
    footer(watch, config, "fig6_left_uniform.dat, fig6_right_twomode.dat");
    return 0;
}

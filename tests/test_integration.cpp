// End-to-end integration tests: the full occupancy-method pipeline on
// streams with known behaviour, and cross-module consistency.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "core/classical_properties.hpp"
#include "core/occupancy.hpp"
#include "core/report.hpp"
#include "core/saturation.hpp"
#include "core/validation.hpp"
#include "gen/registry.hpp"
#include "linkstream/io.hpp"
#include "linkstream/stream_stats.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

SweepConfig quick_options() {
    SweepConfig options;
    options.coarse_points = 20;
    options.refine_rounds = 1;
    options.refine_points = 6;
    options.histogram_bins = 400;
    return options;
}

TEST(Integration, ReplicaPipelineEndToEnd) {
    // A downscaled Enron replica through the whole pipeline: stats, gamma,
    // classical properties at gamma, and validation around gamma.
    const auto stream =
        gen::generate_stream("replica:dataset=enron,scale=0.25", 2025).stream;

    const auto stats = compute_stream_stats(stream);
    EXPECT_GT(stats.events_per_node_per_day, 0.0);

    const auto result = find_saturation_scale(stream, quick_options());
    EXPECT_GT(result.gamma, 1);
    EXPECT_LT(result.gamma, stream.period_end());

    // Interior maximum: the metric is higher at gamma than at both extremes.
    const double at_gamma = score_of(result.at_gamma.scores, result.metric);
    EXPECT_GT(at_gamma, score_of(result.curve.front().scores, result.metric));
    EXPECT_GT(at_gamma, score_of(result.curve.back().scores, result.metric));

    const auto classical = classical_properties(stream, result.gamma, false);
    EXPECT_GT(classical.mean_density_nonempty, 0.0);

    // Validation: losses are moderate below gamma, severe at T.
    const ShortestTransitionSet transitions(stream);
    const double lost_below = transitions.lost_fraction(std::max<Time>(1, result.gamma / 64));
    const double lost_at_T = transitions.lost_fraction(stream.period_end());
    EXPECT_LT(lost_below, 0.5);
    EXPECT_DOUBLE_EQ(lost_at_T, 1.0);
}

TEST(Integration, TwoModeGammaBetweenPureModes) {
    // Fig. 6 right's anchor property: the mixed network's gamma lies between
    // the pure high-activity and pure low-activity gammas.
    auto gamma_at = [&](const char* share) {
        const auto stream =
            gen::generate_stream(std::string("two_mode:n=20,alternations=5,links_high=6,"
                                             "links_low=2,T=50000,low_share=") +
                                     share,
                                 31)
                .stream;
        return find_saturation_scale(stream, quick_options()).gamma;
    };
    const Time gamma_high = gamma_at("0.0");
    const Time gamma_mixed = gamma_at("0.5");
    const Time gamma_low = gamma_at("1.0");

    EXPECT_LT(gamma_high, gamma_low);
    EXPECT_LE(gamma_high / 2, gamma_mixed);   // generous brackets: grid noise
    EXPECT_LE(gamma_mixed, gamma_low * 2);
}

TEST(Integration, SaveAnalyzeReloadedStream) {
    // gamma must be invariant under an I/O round trip.
    const auto stream = gen::generate_stream("uniform:n=15,links=6,T=8000", 77).stream;

    const auto dir = std::filesystem::temp_directory_path();
    const auto path = (dir / "natscale_integration_roundtrip.txt").string();
    save_link_stream(path, stream);
    const auto reloaded = load_link_stream(path);
    std::filesystem::remove(path);

    const auto original = find_saturation_scale(stream, quick_options());
    const auto recovered = find_saturation_scale(reloaded.stream, quick_options());
    EXPECT_EQ(original.gamma, recovered.gamma);
}

TEST(Integration, ReportsRenderWithoutThrowing) {
    const auto stream = gen::generate_stream("uniform:n=10,links=4,T=2000", 5).stream;
    const auto result = find_saturation_scale(stream, quick_options());

    std::ostringstream os;
    print_stream_summary(os, "toy", compute_stream_stats(stream));
    print_saturation_report(os, result);
    const std::string text = os.str();
    EXPECT_NE(text.find("gamma"), std::string::npos);
    EXPECT_NE(text.find("M-K prox"), std::string::npos);
    EXPECT_EQ(saturation_summary(result).find("gamma = "), 0u);
}

TEST(Integration, DirectedAndUndirectedViewsDiffer) {
    // Direction matters for propagation: a one-way stream has fewer trips
    // than its undirected shadow.
    std::vector<Event> events;
    Rng rng(41);
    for (int i = 0; i < 150; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(10));
        NodeId v = static_cast<NodeId>(rng.uniform_index(10));
        if (u == v) v = (v + 1) % 10;
        events.push_back({u, v, rng.uniform_int(0, 999)});
    }
    LinkStream directed(events, 10, 1'000, /*directed=*/true);
    LinkStream undirected(events, 10, 1'000, /*directed=*/false);
    const auto d = occupancy_histogram(directed, 50, 100);
    const auto u = occupancy_histogram(undirected, 50, 100);
    EXPECT_LT(d.total(), u.total());
}

TEST(Integration, GammaRobustToSeedChange) {
    // Statistical stability: two seeds of the same workload give gammas
    // within a factor ~2 (same grid, same distribution family).
    const char* spec = "uniform:n=16,links=8,T=20000";
    const Time g1 =
        find_saturation_scale(gen::generate_stream(spec, 1).stream, quick_options()).gamma;
    const Time g2 =
        find_saturation_scale(gen::generate_stream(spec, 2).stream, quick_options()).gamma;
    EXPECT_LT(std::max(g1, g2), 2 * std::min(g1, g2) + 2);
}

}  // namespace
}  // namespace natscale

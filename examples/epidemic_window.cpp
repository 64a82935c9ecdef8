// epidemic_window — why the saturation scale matters for diffusion studies.
//
// Epidemic spread, rumors and cascades follow temporal paths (Section 2 of
// the paper).  This example measures, on a contact-network-like stream, how
// the *reachability cloud* of a patient zero (the set of nodes a temporal
// path can reach) is distorted by aggregation.  A temporal path of the
// series always embeds one of the stream, so aggregation can only DESTROY
// infection routes: two contacts whose order falls inside one window can no
// longer be chained (Remark 1).  Below gamma the series reproduces the
// stream's reachability almost exactly; beyond gamma outbreak predictions
// silently lose a growing share of the true transmission routes.
//
// Run:  ./build/epidemic_window [--threads=N]
//
// The saturation search runs through the batched parallel sweep engine:
// --threads fans the Delta grid out (splitting the dense scans of a grid
// narrower than the pool by column).  gamma and every number printed are
// identical for every thread count.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/saturation.hpp"
#include "examples/example_cli.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/reachability_stats.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace natscale;

namespace {

/// Sparse contact network: 60 individuals, each with a handful of regular
/// contacts, meeting repeatedly over ~14 hours.  Most pairs are connected
/// only through multi-hop temporal paths — the routes an epidemic takes.
LinkStream contact_stream() {
    Rng rng(17);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (int i = 0; i < 150; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(60));
        NodeId v = static_cast<NodeId>(rng.uniform_index(60));
        if (u == v) v = (v + 1) % 60;
        pairs.emplace_back(u, v);
    }
    std::vector<Event> events;
    for (int i = 0; i < 700; ++i) {
        const auto& [u, v] = pairs[rng.uniform_index(pairs.size())];
        events.push_back({u, v, rng.uniform_int(0, 49'999)});
    }
    return LinkStream(std::move(events), 60, 50'000, /*directed=*/false);
}

}  // namespace

int main(int argc, char** argv) {
    SweepConfig options;
    options.coarse_points = 32;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--threads=", 0) == 0) {
            options.num_threads = examples::parse_count(arg, "--threads=");
        } else {
            std::fprintf(stderr, "unknown option '%s'\nusage: epidemic_window [--threads=N]\n",
                         arg.c_str());
            return 2;
        }
    }

    const LinkStream stream = contact_stream();
    const auto result = find_saturation_scale(stream, options);
    std::cout << "contact stream: " << stream.num_nodes() << " nodes, "
              << stream.num_events() << " contacts, gamma = "
              << format_duration(static_cast<double>(result.gamma)) << "\n\n";

    const ReachabilityCensus truth = reachability_census(stream);
    std::cout << "ground truth (link stream): " << truth.reachable_pairs
              << " infectable (u,v) pairs; largest outbreak cloud "
              << truth.max_out_reach << " nodes (patient zero: node "
              << truth.max_source << ")\n\n";

    ConsoleTable table({"Delta", "vs gamma", "reachable pairs", "retention"});
    const std::vector<Time> deltas{
        std::max<Time>(1, result.gamma / 64), std::max<Time>(1, result.gamma / 8),
        result.gamma, result.gamma * 8, std::min(stream.period_end(), result.gamma * 64)};
    for (Time delta : deltas) {
        const auto census = reachability_census(aggregate(stream, delta));
        const double retention = reachable_pairs_retention(stream, delta);
        const double ratio = static_cast<double>(delta) / static_cast<double>(result.gamma);
        table.add_row({format_duration(static_cast<double>(delta)),
                       format_fixed(ratio, 2) + "x",
                       std::to_string(census.reachable_pairs),
                       format_fixed(retention * 100.0, 1) + "%"});
    }
    table.print(std::cout);

    std::cout << "\nAggregation can only destroy temporal paths (within-window order is\n"
                 "lost), so reachability shrinks as Delta grows — and every vanished\n"
                 "pair is an infection route the aggregated model silently denies.\n"
                 "Keep Delta at or below gamma to study diffusion on the series.\n";
    return 0;
}

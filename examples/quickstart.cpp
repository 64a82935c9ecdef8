// Quickstart: the complete natscale workflow in ~60 lines.
//
//   1. build (or load) a link stream,
//   2. aggregate it at some period and look at a snapshot,
//   3. run the occupancy method to find the saturation scale gamma,
//   4. decide which aggregation periods are safe for propagation analyses.
//
// Run:  ./build/examples/quickstart
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/report.hpp"
#include "core/saturation.hpp"
#include "gen/registry.hpp"
#include "graph/metrics.hpp"
#include "linkstream/aggregation.hpp"
#include "linkstream/stream_stats.hpp"
#include "util/format.hpp"

using namespace natscale;

int main() {
    // 1. A synthetic link stream: 50 nodes, 8 links per pair, ~28 hours.
    //    (Use load_link_stream("mytrace.txt") for a real `u v t` file, with a
    //    CsvFormat for other column layouts, or load_stream_auto for text or
    //    natbin; see `find_time_scale gen --list` for every stream model.)
    const LinkStream stream =
        gen::generate_stream("uniform:n=50,links=8,T=100000", /*seed=*/42).stream;

    print_stream_summary(std::cout, "quickstart", compute_stream_stats(stream));

    // 2. Aggregate at 10 minutes and inspect the middle snapshot.
    //    The series lists only its non-empty windows.
    const GraphSeries series = aggregate(stream, /*delta=*/600);
    const WindowIndex mid = series.num_windows() / 2;
    const auto snapshots = series.snapshots();
    const auto at = std::find_if(snapshots.begin(), snapshots.end(),
                                 [mid](const Snapshot& snapshot) { return snapshot.k == mid; });
    const std::size_t edges = at == snapshots.end() ? 0 : at->edges.size();
    std::printf("aggregated at 10min: %lld windows, snapshot %lld has %zu edges "
                "(density %.4f)\n",
                static_cast<long long>(series.num_windows()), static_cast<long long>(mid),
                edges, density(edges, series.num_nodes(), series.directed()));

    // 3. The occupancy method: fully automatic, no parameters needed.
    SweepConfig options;
    options.coarse_points = 32;
    const SaturationResult result = find_saturation_scale(stream, options);
    std::printf("saturation scale: %s\n", saturation_summary(result).c_str());

    // 4. The verdict for this stream.
    std::printf("=> aggregation periods up to ~%s preserve propagation "
                "properties;\n   beyond that, temporal-path analyses on the "
                "series are unreliable.\n",
                format_duration(static_cast<double>(result.gamma)).c_str());
    return 0;
}

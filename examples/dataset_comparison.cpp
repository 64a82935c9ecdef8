// dataset_comparison — Section 5's cross-dataset observation: the saturation
// scale is anti-correlated with the activity level of the network (messages
// per person per day).  Low-activity networks (Facebook walls, Enron mail)
// tolerate multi-day aggregation; high-activity ones (internal company mail)
// saturate within hours.
//
// Because the saturation scale is a *characteristic time scale* of each
// network, it also lets networks of wildly different sizes and durations be
// compared at one comparable level of aggregation — one of the paper's
// motivations for a parameter-free method.
//
// Runs on downscaled replicas by default; pass --full for published sizes.
//
// Run:  ./build/dataset_comparison [--full] [--threads=N]
//
// Each dataset's saturation search runs through the batched parallel sweep
// engine; --threads mirrors find_time_scale and changes wall-clock only —
// every gamma in the table is identical for every thread count.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/saturation.hpp"
#include "examples/example_cli.hpp"
#include "gen/registry.hpp"
#include "linkstream/stream_stats.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace natscale;

int main(int argc, char** argv) {
    bool full = false;
    std::size_t num_threads = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--full") {
            full = true;
        } else if (arg.rfind("--threads=", 0) == 0) {
            num_threads = examples::parse_count(arg, "--threads=");
        } else {
            std::fprintf(stderr,
                         "unknown option '%s'\nusage: dataset_comparison [--full] [--threads=N]\n",
                         arg.c_str());
            return 2;
        }
    }
    const double scale = full ? 1.0 : 0.25;

    struct Row {
        std::string name;
        double activity;
        Time gamma;
    };
    std::vector<Row> rows;

    ConsoleTable table({"dataset", "nodes", "events", "duration", "msg/node/day", "gamma"});
    for (const std::string name : {"irvine", "facebook", "enron", "manufacturing"}) {
        const std::string spec = "replica:dataset=" + name +
                                 (full ? "" : ",scale=" + format_fixed(scale, 2));
        Stopwatch watch;
        const LinkStream stream = gen::generate_stream(spec, /*seed=*/7).stream;
        const auto stats = compute_stream_stats(stream);

        SweepConfig options;
        options.coarse_points = full ? 48 : 32;
        options.num_threads = num_threads;
        const auto result = find_saturation_scale(stream, options);
        rows.push_back({name, stats.events_per_node_per_day, result.gamma});

        table.add_row({name, std::to_string(stats.num_nodes),
                       format_count(stats.num_events),
                       format_duration(static_cast<double>(stats.period_end)),
                       format_fixed(stats.events_per_node_per_day, 2),
                       format_duration(static_cast<double>(result.gamma))});
        std::cout << name << " done in " << format_duration(watch.elapsed_seconds())
                  << "\n";
    }
    std::cout << '\n';
    table.print(std::cout);

    // The paper's qualitative claim: ordering by activity is the reverse of
    // the ordering by gamma.
    std::cout << "\nactivity vs gamma (expect anti-correlation):\n";
    for (const auto& row : rows) {
        std::cout << "  " << row.name << ": " << format_fixed(row.activity, 2)
                  << " msg/node/day -> gamma " << format_duration(static_cast<double>(row.gamma))
                  << "\n";
    }
    std::cout << "paper reference (real traces): irvine 18h, facebook 46h, enron 78h,\n"
                 "manufacturing 12h — low activity <=> large saturation scale.\n";
    return 0;
}

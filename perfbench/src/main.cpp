// natbench: one run of one benchmark workload.
//
//   natbench --workload NAME --seed N --seconds S --trace 0|1
//            [--size full|tiny] [--gen-seed N]
//            [--workdir DIR] [--trace-out FILE] [--corrupt-expected] [--record]
//
// Prints two JSON lines on stdout.  The first is the full record of the run
// (environment stamp, workload facts, every metric, every mismatch); the
// last is the summary {"correct", "attempted", "failed", "metrics"} whose
// metrics are exactly the end-to-end catalogue (--trace 0) or the per-layer
// catalogue (--trace 1).  Exit status: 0 when every answer was correct, 1
// when one was wrong or an operation failed, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "inputs.hpp"
#include "util/json.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

// The catalogue; BENCHMARK.json lists the same names.  Per-layer metrics a
// workload does not exercise read 0.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},           {"peak_rss_mib", "MiB"},
    {"query_p50_ms", "ms"},    {"query_p90_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.generate_s", "s"},
    {"linkstream.save_s", "s"},
    {"linkstream.open_s", "s"},
    {"linkstream.index_s", "s"},
    {"linkstream.aggregate_s", "s"},
    {"linkstream.windows", "count"},
    {"linkstream.edges", "count"},
    {"temporal.relax_emit_s", "s"},
    {"temporal.trips", "count"},
    {"temporal.dense_scans", "count"},
    {"temporal.sparse_scans", "count"},
    {"stats.accumulate_s", "s"},
    {"stats.accumulate_share", "ratio"},
    {"core.evaluate_s", "s"},
    {"core.busy_s", "s"},
    {"core.score_s", "s"},
    {"core.search_overhead_s", "s"},
    {"core.rounds", "count"},
    {"core.deltas", "count"},
    {"online.ingest_s", "s"},
    {"online.sync_s", "s"},
    {"online.refresh_s", "s"},
    {"online.refresh_p50_ms", "ms"},
    {"online.sealed_events", "count"},
    {"service.ingest_rtt_p50_ms", "ms"},
    {"service.overhead_s", "s"},
    {"service.requests", "count"},
    {"service.errors", "count"},
};

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "natbench: " << problem << "\n"
              << "usage: natbench --workload NAME --seed N --seconds S --trace 0|1\n"
              << "                [--size full|tiny] [--gen-seed N]\n"
              << "                [--workdir DIR] [--trace-out FILE] [--corrupt-expected]"
                 " [--record]\n";
    std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
    try {
        std::size_t used = 0;
        const unsigned long long value = std::stoull(text, &used);
        if (used == text.size()) return value;
    } catch (const std::exception&) {
    }
    usage("bad value '" + text + "' for " + flag);
}

struct Args {
    RunOptions run;
    std::string workdir = ".";
    bool record = false;
};

Args parse_args(int argc, char** argv) {
    Args args;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--corrupt-expected") {
            args.run.corrupt_expected = true;
            continue;
        }
        if (flag == "--record") {
            args.record = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.run.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.run.seed = parse_count(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.run.seconds = static_cast<double>(parse_count(flag, value));
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            args.run.trace = value == "1";
            have_trace = true;
        } else if (flag == "--size") {
            if (value != "full" && value != "tiny") usage("--size takes full or tiny");
            args.run.size = value == "full" ? Size::full : Size::tiny;
        } else if (flag == "--gen-seed") {
            args.run.gen_seed = parse_count(flag, value);
        } else if (flag == "--workdir") {
            args.workdir = value;
        } else if (flag == "--trace-out") {
            args.run.trace_out = value;
        } else {
            usage("unknown option " + flag);
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!args.record && !(have_seed && have_seconds && have_trace)) {
        usage("--seed, --seconds and --trace are required");
    }
    return args;
}

/// Writes every catalogue metric as {"value", "unit"}; one the run did not
/// produce reads 0.
void write_metrics(natscale::JsonWriter& json, std::span<const MetricDef> catalogue,
                   const Metrics& metrics) {
    json.begin_object("metrics");
    for (const MetricDef& def : catalogue) {
        const auto found = metrics.find(def.name);
        const double value = found == metrics.end() ? 0.0 : found->second;
        if (!std::isfinite(value)) throw std::logic_error(std::string(def.name) + " is not finite");
        json.begin_object(def.name);
        json.field("value", value);
        json.field("unit", def.unit);
        json.end_object();
    }
    json.end_object();
}

void write_environment(natscale::JsonWriter& json, const RunOptions& options,
                       const Workload& workload) {
    json.begin_object("env");
    json.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    json.field("simd_isa", natscale::to_string(natscale::active_simd_isa()));
    json.field("compiler", NATBENCH_COMPILER);
    json.field("build_type", NATBENCH_BUILD_TYPE);
    json.field("search_threads", static_cast<std::uint64_t>(kSearchThreads));
    json.field("daemon_workers", std::uint64_t{2});
    json.field("daemon_engine_threads", std::uint64_t{1});
    json.field("seed", options.seed);
    json.field("gen_seed", options.gen_seed);
    json.field("size", options.size == Size::full ? "full" : "tiny");
    json.field("spec", spec_of(workload, options.size));
    json.end_object();
}

int run(const Args& args) {
    const RunOptions& options = args.run;
    const Workload* workload = find_workload(options.workload);
    if (workload == nullptr) usage("unknown workload '" + options.workload + "'");

    if (args.record) {
        const KnownAnswer answer = record_answer(options, *workload);
        std::cout << "{\"" << workload->name << "\", Size::"
                  << (options.size == Size::full ? "full" : "tiny") << ", " << options.gen_seed
                  << ", {" << answer.gamma << ", " << answer.trips_at_gamma << ", 0x" << std::hex
                  << answer.curve_hash << std::dec << "ULL}},\n";
        return 0;
    }

    Tracer tracer;
    Tracer* const active = options.trace ? &tracer : nullptr;
    RunResult result;
    try {
        result = workload->kind == WorkloadKind::daemon ? run_daemon(options, *workload, active)
                                                        : run_search(options, *workload, active);
    } catch (const std::exception& error) {
        result.count_op({std::string("run aborted: ") + error.what()});
    }
    if (options.trace && !options.trace_out.empty()) tracer.write_chrome_trace(options.trace_out);

    const bool correct = result.failed == 0;
    const std::span<const MetricDef> catalogue = options.trace
                                                     ? std::span<const MetricDef>(kPerLayer)
                                                     : std::span<const MetricDef>(kEndToEnd);
    for (const auto& [name, value] : result.metrics) {
        const bool known = std::any_of(catalogue.begin(), catalogue.end(),
                                       [&](const MetricDef& def) { return name == def.name; });
        if (!known) throw std::logic_error("metric " + name + " is not in the catalogue");
    }
    if (correct && !options.trace && result.metrics.size() != catalogue.size()) {
        throw std::logic_error("an end-to-end metric is missing");
    }

    natscale::JsonWriter record;
    record.begin_object();
    record.begin_object("natbench_record");
    record.field("workload", options.workload);
    record.field("trace", options.trace);
    record.field("seconds", options.seconds);
    write_environment(record, options, *workload);
    record.begin_object("facts");
    for (const auto& [name, value] : result.facts) record.field(name, value);
    record.end_object();
    if (options.trace) {
        record.begin_object("span_self_s");
        for (const auto& [name, self_s] : tracer.self_seconds_by_name()) {
            record.field(name, self_s);
        }
        record.end_object();
    }
    std::string errors;
    for (const std::string& error : result.errors) {
        if (!errors.empty()) errors += "; ";
        errors += error;
    }
    record.field("errors", errors);
    record.field("correct", correct);
    record.field("attempted", result.attempted);
    record.field("failed", result.failed);
    write_metrics(record, catalogue, result.metrics);
    record.end_object();
    record.end_object();
    std::cout << record.str() << '\n';
    for (const std::string& error : result.errors) std::cerr << "natbench: " << error << '\n';

    natscale::JsonWriter summary;
    summary.begin_object();
    summary.field("correct", correct);
    summary.field("attempted", result.attempted);
    summary.field("failed", result.failed);
    write_metrics(summary, catalogue, result.metrics);
    summary.end_object();
    std::cout << summary.str() << std::endl;
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    perfbench::Args args = perfbench::parse_args(argc, argv);
    try {
        if (!args.run.trace_out.empty()) {
            args.run.trace_out = std::filesystem::absolute(args.run.trace_out).string();
        }
        std::filesystem::current_path(args.workdir);
        return perfbench::run(args);
    } catch (const std::exception& error) {
        std::cerr << "natbench: " << error.what() << '\n';
        return 2;
    }
}

// Online-engine bench: ingest throughput and incremental-refresh latency vs
// a cold batch sweep, on a 10^7-event on-disk natbin trace of cell-local
// contacts (proximity groups: each event pairs two members of one of
// nodes/8 fixed cells, one event per tick).  Cell locality bounds the
// temporal reach of every source by the cell size AT EVERY aggregation
// period, which is what makes a full [1, T] Delta grid tractable at
// n = 16384 for the cold reference and the online engine alike — the
// ring workload of tests/test_outofcore_scale.cpp has reach growing with
// the window count, which is fine for its single Delta = T/32 but blows up
// both sweeps on a grid that includes fine periods.
//
// Protocol (the acceptance measurement of the online subsystem):
//   1. stream all but the last `append_fraction` of the events into a
//      natbin file (writer left unfinished — a live file), tail-open it and
//      sync the online engine over the whole Delta grid: the INGEST phase;
//   2. append the remaining events (the "1 % more traffic" moment), reopen
//      the tail, sync + refresh: the INCREMENTAL REFRESH — only unsealed
//      windows are swept;
//   3. finish the file and run a cold DeltaSweepEngine batch sweep of the
//      same grid over the full trace: the COLD reference;
//   4. assert the refreshed points and histograms are BIT-IDENTICAL to the
//      cold ones (exit 1 otherwise) and emit the timings as JSON
//      (BENCH_online.json in CI).
//
// A secondary mode turns the binary into the background writer of the CI
// `watch` smoke test: --write-stream=PATH appends the same workload in
// batches with explicit flush()es and sleeps, so `find_time_scale watch`
// observes a genuinely growing file.
//
// Usage:
//   perf_online [--events=N] [--nodes=N] [--points=P] [--append-ppm=N]
//               [--threads=N] [--json=FILE]
//   perf_online --write-stream=PATH [--events=N] [--nodes=N] [--batch=K]
//               [--batch-sleep-ms=M]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "linkstream/binary_io.hpp"
#include "online/incremental_sweep.hpp"
#include "util/proc_rss.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace natscale;

namespace {

std::uint64_t parse_u64(const std::string& arg, std::size_t prefix_len,
                        bool allow_zero = false) {
    try {
        const std::string value = arg.substr(prefix_len);
        std::size_t consumed = 0;
        const unsigned long long parsed = std::stoull(value, &consumed);
        if (value.empty() || value[0] == '-' || consumed != value.size() ||
            (parsed == 0 && !allow_zero)) {
            throw std::invalid_argument(value);
        }
        return parsed;
    } catch (const std::exception&) {
        std::fprintf(stderr, "invalid number in '%s'\n", arg.c_str());
        std::exit(2);
    }
}

/// Cell-local contact workload: nodes live in fixed cells of 8, every event
/// pairs two members of one cell, one event per tick.
constexpr std::uint64_t kCellSize = 8;

Event cell_event(std::uint64_t i, std::uint64_t num_nodes) {
    const std::uint64_t cells = num_nodes / kCellSize;
    const std::uint64_t cell = hash64(i) % cells;
    const std::uint64_t mixed = hash64(i * 0x9e3779b97f4a7c15ULL + 1);
    auto a = static_cast<NodeId>(cell * kCellSize + mixed % kCellSize);
    auto b = static_cast<NodeId>(cell * kCellSize + (mixed >> 8) % kCellSize);
    if (a == b) b = static_cast<NodeId>(cell * kCellSize + (a + 1 - cell * kCellSize) % kCellSize);
    if (a > b) std::swap(a, b);
    return {a, b, static_cast<Time>(i)};
}

bool identical(const DeltaPoint& a, const DeltaPoint& b) {
    return a.delta == b.delta && a.num_trips == b.num_trips &&
           a.occupancy_mean == b.occupancy_mean &&
           a.scores.mk_proximity == b.scores.mk_proximity &&
           a.scores.std_deviation == b.scores.std_deviation &&
           a.scores.variation_coefficient == b.scores.variation_coefficient &&
           a.scores.shannon_entropy == b.scores.shannon_entropy &&
           a.scores.cre == b.scores.cre;
}

bool identical(const Histogram01& a, const Histogram01& b) {
    return a.counts() == b.counts() && a.total() == b.total() &&
           a.moment_sum() == b.moment_sum() && a.moment_sum_sq() == b.moment_sum_sq();
}

int run_writer(const std::string& path, std::uint64_t num_events, std::uint64_t num_nodes,
               std::uint64_t batch, std::uint64_t sleep_ms) {
    try {
        NatbinWriter writer(path, static_cast<NodeId>(num_nodes),
                            static_cast<Time>(num_events), false);
        for (std::uint64_t i = 0; i < num_events; ++i) {
            writer.append(cell_event(i, num_nodes));
            if ((i + 1) % batch == 0) {
                writer.flush();
                std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
            }
        }
        writer.finish();
        std::fprintf(stderr, "writer: finished %s (%llu events)\n", path.c_str(),
                     static_cast<unsigned long long>(num_events));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "writer error: %s\n", e.what());
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t num_events = 10'000'000;
    std::uint64_t num_nodes = 16'384;
    std::uint64_t points = 24;
    std::uint64_t append_ppm = 10'000;  // 1 %
    std::uint64_t threads = 0;
    std::uint64_t batch = 50'000;
    std::uint64_t sleep_ms = 100;
    std::string json_path;
    std::string write_stream;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--events=", 0) == 0) {
            num_events = parse_u64(arg, 9);
        } else if (arg.rfind("--nodes=", 0) == 0) {
            num_nodes = parse_u64(arg, 8);
        } else if (arg.rfind("--points=", 0) == 0) {
            points = parse_u64(arg, 9);
        } else if (arg.rfind("--append-ppm=", 0) == 0) {
            append_ppm = parse_u64(arg, 13);
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = parse_u64(arg, 10, /*allow_zero=*/true);
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg.rfind("--write-stream=", 0) == 0) {
            write_stream = arg.substr(15);
        } else if (arg.rfind("--batch=", 0) == 0) {
            batch = parse_u64(arg, 8);
        } else if (arg.rfind("--batch-sleep-ms=", 0) == 0) {
            sleep_ms = parse_u64(arg, 17, /*allow_zero=*/true);
        } else {
            std::fprintf(stderr,
                         "usage: perf_online [--events=N] [--nodes=N] [--points=P]\n"
                         "                   [--append-ppm=N] [--threads=N] [--json=FILE]\n"
                         "       perf_online --write-stream=PATH [--events=N] [--nodes=N]\n"
                         "                   [--batch=K] [--batch-sleep-ms=M]\n");
            return 2;
        }
    }
    if (!write_stream.empty()) {
        return run_writer(write_stream, num_events, num_nodes, batch, sleep_ms);
    }

    const auto path = (std::filesystem::temp_directory_path() /
                       ("natscale_bench_online_" + std::to_string(num_events) + ".natbin"))
                          .string();
    const auto period = static_cast<Time>(num_events);
    const std::uint64_t append_events =
        std::max<std::uint64_t>(1, num_events * append_ppm / 1'000'000);
    const std::uint64_t base_events = num_events - append_events;

    int exit_code = 0;
    try {
        OnlineSweepOptions options;
        options.grid = geometric_delta_grid(1, period, static_cast<std::size_t>(points));
        options.num_threads = static_cast<std::size_t>(threads);

        // --- 1. base trace + ingest -------------------------------------
        NatbinWriter writer(path, static_cast<NodeId>(num_nodes), period, false);
        Stopwatch watch;
        for (std::uint64_t i = 0; i < base_events; ++i) {
            writer.append(cell_event(i, num_nodes));
        }
        writer.flush();  // live file: header count still unpatched
        const double write_s = watch.elapsed_seconds();

        OnlineSweepEngine engine(static_cast<NodeId>(num_nodes), false, options);
        watch.reset();
        NatbinTail tail = open_natbin_tail(path);
        engine.sync(tail.events, tail.events.empty() ? 0 : tail.events.back().t);
        const double ingest_s = watch.elapsed_seconds();

        // --- 2. append 1 %, incremental refresh -------------------------
        watch.reset();
        for (std::uint64_t i = base_events; i < num_events; ++i) {
            writer.append(cell_event(i, num_nodes));
        }
        writer.flush();
        const double append_s = watch.elapsed_seconds();

        watch.reset();
        tail = open_natbin_tail(path, tail_cursor(tail));
        engine.sync(tail.events, tail.events.back().t);
        std::vector<Histogram01> online_hists;
        const OnlineReport report = engine.refresh(tail.events, &online_hists);
        const double refresh_s = watch.elapsed_seconds();

        // --- 3. cold batch reference over the finished file -------------
        writer.finish();
        watch.reset();
        const LoadedStream loaded = open_natbin(path);
        DeltaSweepOptions cold_options;
        cold_options.num_threads = static_cast<std::size_t>(threads);
        DeltaSweepEngine cold(loaded.stream, cold_options);
        std::vector<Histogram01> cold_hists;
        const std::vector<DeltaPoint> cold_points =
            cold.evaluate(options.grid, &cold_hists);
        const double cold_s = watch.elapsed_seconds();

        // --- 4. bit-identity + report -----------------------------------
        bool equal = cold_points.size() == report.points.size();
        for (std::size_t g = 0; equal && g < cold_points.size(); ++g) {
            equal = identical(report.points[g], cold_points[g]) &&
                    identical(online_hists[g], cold_hists[g]);
        }
        const double speedup = refresh_s > 0 ? cold_s / refresh_s : 0.0;
        const double events_per_s = ingest_s > 0 ? double(base_events) / ingest_s : 0.0;
        std::printf(
            "events=%llu (+%llu appended) grid=%zu write=%.2fs ingest=%.2fs "
            "(%.0f events/s) append=%.2fs incremental_refresh=%.3fs cold_sweep=%.2fs "
            "speedup=%.1fx identical=%s gamma=%lld peak_rss=%.1f MiB\n",
            static_cast<unsigned long long>(base_events),
            static_cast<unsigned long long>(append_events), options.grid.size(), write_s,
            ingest_s, events_per_s, append_s, refresh_s, cold_s, speedup,
            equal ? "yes" : "NO", static_cast<long long>(report.gamma), peak_rss_mib());
        if (!equal) {
            std::fprintf(stderr,
                         "FAIL: incremental refresh diverged from the cold batch sweep\n");
            exit_code = 1;
        }

        if (!json_path.empty() && exit_code == 0) {
            std::FILE* out = std::fopen(json_path.c_str(), "w");
            if (out == nullptr) {
                std::fprintf(stderr, "cannot open '%s' for writing\n", json_path.c_str());
                exit_code = 1;
            } else {
                std::fprintf(
                    out,
                    "{\n"
                    "  \"benchmark\": \"perf_online\",\n"
                    "  \"events\": %llu,\n"
                    "  \"appended_events\": %llu,\n"
                    "  \"nodes\": %llu,\n"
                    "  \"grid_points\": %zu,\n"
                    "  \"ingest_seconds\": %.6f,\n"
                    "  \"ingest_events_per_second\": %.1f,\n"
                    "  \"incremental_refresh_seconds\": %.6f,\n"
                    "  \"cold_sweep_seconds\": %.6f,\n"
                    "  \"refresh_speedup_vs_cold\": %.3f,\n"
                    "  \"bit_identical_to_cold\": %s,\n"
                    "  \"gamma_ticks\": %lld,\n"
                    "  \"trips_at_gamma\": %llu,\n"
                    "  \"peak_rss_mib\": %.3f\n"
                    "}\n",
                    static_cast<unsigned long long>(num_events),
                    static_cast<unsigned long long>(append_events),
                    static_cast<unsigned long long>(num_nodes), options.grid.size(),
                    ingest_s, events_per_s, refresh_s, cold_s, speedup,
                    equal ? "true" : "false", static_cast<long long>(report.gamma),
                    static_cast<unsigned long long>(report.at_gamma.num_trips),
                    peak_rss_mib());
                std::fclose(out);
                std::printf("wrote %s\n", json_path.c_str());
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        exit_code = 1;
    }
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return exit_code;
}

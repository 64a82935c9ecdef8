// find_time_scale — the command-line tool of the paper's Section 1.1: a
// "fully automatic [method that] does not require any parameter as input",
// ready to be incorporated into any dynamic-network analysis pipeline.
//
// Usage:
//   find_time_scale <stream-file> [--directed] [--metric=mk|stddev|shannon|cre]
//                   [--points=N] [--refine-rounds=N]
//                   [--threads=N] [--format=auto|text|natbin]
//                   [--curve] [--dat=prefix] [--json] [--segments]
//   find_time_scale convert <input> <output> [--directed]
//                   [--format=auto|text|natbin] [--to=natbin|text]
//                   [--columns=uvt|tuv|...] [--delimiter=C|tab|space|comma]
//                   [--time-scale=X] [--skip-header=N] [--validate]
//   find_time_scale gen <spec> [--param=key=value ...] [--seed=N]
//                   [--truth] [--out=path] [--to=natbin|text]
//   find_time_scale gen --list
//   find_time_scale watch <file.natbin> [--points=N]
//                   [--metric=mk|stddev|shannon|cre] [--threads=N]
//                   [--every-events=N] [--every-seconds=S] [--poll-ms=M]
//                   [--max-reports=N] [--checkpoint=PATH]
//
// Text stream files hold one `u v t` triple per line (spaces, tabs or
// commas; '#'/'%' comments; arbitrary node labels; \n, \r\n or \r line
// endings), read by the one text parser of linkstream/io.  .natbin files
// are the compact binary format of linkstream/binary_io: they reopen via
// mmap, so multi-GB traces are analyzed out-of-core without loading the
// events into RAM.  `convert` turns one into the other (text -> natbin is
// the common direction; the labels, node universe and period survive
// exactly), and its --columns/--delimiter/--time-scale/--skip-header flags
// adapt published CSV/TSV conventions (SNAP `u v t`, sociopatterns `t i j`,
// millisecond stamps, header rows) on the way in; --validate rereads the
// output through the same parsers before declaring success.
//
// `gen` resolves a generator spec ("model:key=value,..." — see
// docs/generators.md) through the scenario factory of src/gen/registry.hpp
// and prints the stream summary plus, with --truth, the model's
// ground-truth report; --out writes the stream for the main command or any
// other consumer.  `gen --list` prints the model catalogue with per-model
// parameters and defaults.
// Output: the saturation scale gamma, and optionally the full metric curve,
// machine-readable JSON, per-activity-regime scales, and gnuplot .dat
// files.
//
// The Delta grid of every search round is swept in parallel by one
// in-process thread pool (--threads), one task per period, so a round
// narrower than the pool leaves threads idle; gamma, the curve and the JSON
// report are bit-identical for every thread count.  Each period's scan
// runs on the dense or sparse reachability kernel that select_backend
// picks from n and event density.
//
// `watch` tails a GROWING natbin file (a writer appending via NatbinWriter,
// header count still unpatched) through the online incremental engine
// (src/online): it folds sealed windows as records appear and emits one
// JSON line per report — gamma, the metric scores at gamma, trip count —
// recomputing only the unsealed tail, never the history.  The final report
// (emitted when the writer finish()es the file) is bit-identical to the
// batch run `find_time_scale <file> --points=N --refine-rounds=0` over the
// same coarse grid.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.hpp"
#include "core/segmentation.hpp"
#include "examples/example_cli.hpp"
#include "gen/registry.hpp"
#include "linkstream/binary_io.hpp"
#include "linkstream/io.hpp"
#include "linkstream/stream_stats.hpp"
#include "natscale/api.hpp"
#include "natscale/report_schema.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/checkpoint.hpp"
#include "online/incremental_sweep.hpp"
#include "util/format.hpp"
#include "util/gnuplot.hpp"
#include "util/timer.hpp"

using namespace natscale;
using examples::FormatChoice;
using examples::parse_bounded_count;
using examples::parse_count;
using examples::parse_format;
using examples::parse_grid_points;
using examples::parse_metric;
using examples::parse_thread_count;

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: find_time_scale <stream-file> [--directed]\n"
                 "                       [--metric=mk|stddev|shannon|cre]\n"
                 "                       [--points=N] [--refine-rounds=N]\n"
                 "                       [--threads=N] [--format=auto|text|natbin]\n"
                 "                       [--curve] [--dat=prefix] [--json] [--segments]\n"
                 "       find_time_scale convert <input> <output> [--directed]\n"
                 "                       [--format=auto|text|natbin] [--to=natbin|text]\n"
                 "                       [--columns=uvt|tuv|...]\n"
                 "                       [--delimiter=C|tab|space|comma]\n"
                 "                       [--time-scale=X] [--skip-header=N] [--validate]\n"
                 "       find_time_scale gen <spec> [--param=key=value ...] [--seed=N]\n"
                 "                       [--truth] [--out=path] [--to=natbin|text]\n"
                 "       find_time_scale gen --list\n"
                 "       find_time_scale watch <file.natbin> [--points=N]\n"
                 "                       [--metric=mk|stddev|shannon|cre] [--threads=N]\n"
                 "                       [--every-events=N] [--every-seconds=S]\n"
                 "                       [--poll-ms=M] [--max-reports=N]\n"
                 "                       [--checkpoint=PATH]\n"
                 "every subcommand also accepts --trace-out=FILE (Chrome-trace-format\n"
                 "spans, loadable in Perfetto) and --metrics-out=FILE (final\n"
                 "metrics_snapshot JSON line; '-' for stdout); results are bit-identical\n"
                 "with and without either sink.  NATSCALE_SIMD=scalar|avx2|avx512\n"
                 "overrides the kernel dispatch (same results on every path)\n");
}

/// Process-wide observability session for the CLI (--trace-out /
/// --metrics-out, any subcommand): installs the trace sink up front and,
/// by living in main()'s scope, closes it and appends the final
/// metrics_snapshot line on EVERY exit path — error returns included —
/// so a failed run still leaves its counters on disk.
class ObsSession {
public:
    ObsSession() = default;
    ObsSession(const ObsSession&) = delete;
    ObsSession& operator=(const ObsSession&) = delete;

    void open_trace(const std::string& path) {
        sink_ = std::make_unique<obs::TraceSink>(path);
        obs::install_trace_sink(sink_.get());
    }

    void set_metrics_out(std::string path) { metrics_path_ = std::move(path); }

    ~ObsSession() {
        if (sink_ != nullptr) {
            obs::install_trace_sink(nullptr);
            sink_->close();
        }
        if (metrics_path_.empty()) return;
        const std::string line = metrics_snapshot_json(obs::metrics_snapshot());
        if (metrics_path_ == "-") {
            std::printf("%s\n", line.c_str());
        } else {
            std::ofstream out(metrics_path_, std::ios::app);
            out << line << "\n";
        }
    }

private:
    std::unique_ptr<obs::TraceSink> sink_;
    std::string metrics_path_;
};

/// Loads the input of the main command and of `convert`, honouring a forced
/// format: auto sniffs through load_stream_auto, text goes through the one
/// text parser under `csv`, and natbin through the mmap-backed open_natbin,
/// so the events are paged on demand instead of parsed into RAM.  A natbin
/// file fixes its own directedness, so a contradicting --directed is
/// reported rather than silently dropped.
LoadedStream load_input(const std::string& path, FormatChoice format, const CsvFormat& csv) {
    LoadedStream loaded = format == FormatChoice::automatic ? load_stream_auto(path, csv)
                          : format == FormatChoice::text ? load_link_stream(path, csv)
                                                         : open_natbin(path);
    if (csv.directed && !loaded.stream.directed()) {
        std::fprintf(stderr,
                     "warning: --directed ignored: '%s' is a natbin file flagged undirected\n",
                     path.c_str());
    }
    return loaded;
}

/// Post-conversion / post-generation summary: events, node universe, time
/// span, label count, directedness — what the output file actually carries.
void print_stream_shape(const std::string& path, const LinkStream& stream,
                        std::size_t num_labels) {
    std::cout << "wrote " << path << ": " << stream.num_events() << " events, n="
              << stream.num_nodes() << ", T=" << stream.period_end();
    if (!stream.empty()) {
        std::cout << " (events span [" << stream.first_time() << ", " << stream.last_time()
                  << "], " << stream.num_distinct_timestamps() << " distinct timestamps)";
    }
    std::cout << ", " << num_labels << " labels"
              << (stream.directed() ? ", directed" : ", undirected") << '\n';
}

/// `find_time_scale convert <input> <output>`: re-encodes a stream.  The
/// natbin output preserves what text cannot: the exact node universe n
/// (isolated nodes included), the period of study T, directedness, and the
/// dense-id <-> label mapping.  Text inputs go through the same parser as
/// the main command, with the CSV layout flags on top; malformed rows exit 2
/// with the path, line number and a named reason.
int run_convert(int argc, char** argv) {
    CsvFormat csv;
    FormatChoice in_format = FormatChoice::automatic;
    FormatChoice out_format = FormatChoice::natbin;
    bool validate = false;
    std::string input;
    std::string output;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--directed") {
            csv.directed = true;
        } else if (arg.rfind("--format=", 0) == 0) {
            in_format = parse_format(arg, "--format=", true);
        } else if (arg.rfind("--to=", 0) == 0) {
            out_format = parse_format(arg, "--to=", false);
        } else if (arg.rfind("--columns=", 0) == 0) {
            csv.columns = examples::option_value(arg, "--columns=");
        } else if (arg.rfind("--delimiter=", 0) == 0) {
            csv.delimiter = examples::parse_delimiter(arg, "--delimiter=");
        } else if (arg.rfind("--time-scale=", 0) == 0) {
            csv.time_scale = examples::parse_double(arg, "--time-scale=");
            if (!(csv.time_scale > 0.0)) {
                examples::invalid_value("--time-scale=", std::to_string(csv.time_scale),
                                        "a positive number");
            }
        } else if (arg.rfind("--skip-header=", 0) == 0) {
            csv.skip_header = parse_count(arg, "--skip-header=");
        } else if (arg == "--validate") {
            validate = true;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 2;
        } else if (input.empty()) {
            input = arg;
        } else if (output.empty()) {
            output = arg;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
            usage();
            return 2;
        }
    }
    if (input.empty() || output.empty()) {
        usage();
        return 2;
    }
    try {
        validate_csv_columns(csv.columns, input);  // before touching the file
        const LoadedStream loaded = load_input(input, in_format, csv);
        if (out_format == FormatChoice::natbin) {
            save_natbin(output, loaded.stream, loaded.node_labels);
        } else {
            save_link_stream(output, loaded.stream, loaded.node_labels);
        }
        print_stream_shape(output, loaded.stream, loaded.node_labels.size());
        if (validate) {
            // Reread through the same parsers: one full validation pass
            // (bounds, canonical order, label table) over what we just wrote.
            const LoadedStream reread = out_format == FormatChoice::natbin
                                            ? open_natbin(output)
                                            : load_link_stream(output);
            if (reread.stream.num_events() != loaded.stream.num_events()) {
                std::fprintf(stderr, "error: validation reread %zu events, expected %zu\n",
                             reread.stream.num_events(), loaded.stream.num_events());
                return 1;
            }
            std::cout << "validated " << output << ": OK ("
                      << reread.stream.num_events() << " events)\n";
        }
    } catch (const io_error& e) {
        // Malformed input rows and corrupt natbin records: a *diagnosed*
        // failure with a named reason, distinct from environmental errors.
        std::fprintf(stderr, "error: malformed input: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

/// `find_time_scale gen --list`: the model catalogue, one block per model.
void print_gen_catalogue() {
    for (const auto& model : gen::generator_registry().models()) {
        std::printf("%-14s [%s] %s\n", model.name.c_str(), gen::to_string(model.kind),
                    model.summary.c_str());
        for (const auto& param : model.params) {
            std::printf("    %-18s default %-22s %s\n", param.name.c_str(),
                        param.default_value.c_str(), param.help.c_str());
        }
    }
}

/// `find_time_scale gen <spec>`: resolves a spec through the generator
/// registry; prints the stream summary, optionally the ground-truth report
/// (--truth), and optionally writes the stream (--out, --to).  Spec errors
/// (unknown model/param, bad values) exit 2 with the registry's message.
int run_gen(int argc, char** argv) {
    bool list = false;
    bool truth = false;
    std::string spec_text;
    std::string out_path;
    FormatChoice out_format = FormatChoice::natbin;
    bool seed_set = false;
    std::size_t seed = 0;
    std::vector<std::pair<std::string, std::string>> params;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list") {
            list = true;
        } else if (arg == "--truth") {
            truth = true;
        } else if (arg.rfind("--param=", 0) == 0) {
            params.push_back(examples::parse_key_value(arg, "--param="));
        } else if (arg.rfind("--seed=", 0) == 0) {
            seed = parse_count(arg, "--seed=");
            seed_set = true;
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = examples::option_value(arg, "--out=");
        } else if (arg.rfind("--to=", 0) == 0) {
            out_format = parse_format(arg, "--to=", false);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 2;
        } else if (spec_text.empty()) {
            spec_text = arg;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
            usage();
            return 2;
        }
    }
    if (list) {
        print_gen_catalogue();
        return 0;
    }
    if (spec_text.empty()) {
        usage();
        return 2;
    }
    try {
        gen::GenSpec spec = gen::parse_gen_spec(spec_text);
        for (const auto& [key, value] : params) {
            if (key == "seed") {
                spec.seed = examples::parse_count("--param=seed=" + value, "--param=seed=");
            } else {
                spec.params[key] = value;  // repeated options: last one wins
            }
        }
        if (seed_set) spec.seed = seed;

        const gen::GeneratedStream generated = gen::generate_stream(spec);
        std::cout << "generated " << gen::to_string(spec) << ": "
                  << generated.stream.num_events() << " events, n="
                  << generated.stream.num_nodes() << ", T=" << generated.stream.period_end()
                  << ", " << generated.stream.num_distinct_timestamps()
                  << " distinct timestamps"
                  << (generated.stream.directed() ? ", directed" : ", undirected") << '\n';

        if (truth) {
            const gen::GroundTruth& report = generated.truth;
            std::cout << "ground truth (" << report.notes << "):\n";
            std::cout << "  events=" << report.num_events << " (bounds ["
                      << report.min_events << ", ";
            if (report.max_events == std::numeric_limits<std::uint64_t>::max()) {
                std::cout << "inf";
            } else {
                std::cout << report.max_events;
            }
            std::cout << "])\n";
            for (const auto& [name, value] : report.facts) {
                std::cout << "  fact " << name << " = " << value << '\n';
            }
            const auto violations = report.verify(generated.stream);
            for (const auto& invariant : report.invariants) {
                std::cout << "  invariant " << invariant.name << ": "
                          << (invariant.check(generated.stream).empty() ? "PASS" : "FAIL")
                          << '\n';
            }
            if (!violations.empty()) {
                for (const auto& violation : violations) {
                    std::fprintf(stderr, "error: ground truth violated: %s\n",
                                 violation.c_str());
                }
                return 1;
            }
        }

        if (!out_path.empty()) {
            if (out_format == FormatChoice::natbin) {
                save_natbin(out_path, generated.stream);
            } else {
                save_link_stream(out_path, generated.stream);
            }
            print_stream_shape(out_path, generated.stream, /*num_labels=*/0);
        }
    } catch (const gen::gen_error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

/// One JSON report line of the watch loop: the schema-1 saturation report
/// (natscale/report_schema) — byte-identical field-for-field to a daemon
/// saturation query over the same events.
void emit_watch_report(const OnlineReport& report, Time watermark, bool finished,
                       double refresh_seconds, UniformityMetric metric,
                       std::int64_t seq) {
    ReportContext context;
    context.events = report.events_covered;
    context.watermark = watermark;
    context.sealed_only = false;  // watch refreshes over the whole tail
    context.finished = finished;
    context.refresh_seconds = refresh_seconds;
    context.seq = seq;  // monotonic line counter: readers detect dropped lines
    // flush: a pipe reader sees it now
    std::cout << online_report_json(report, metric, context) << std::endl;
}

/// `find_time_scale watch <file.natbin>`: tails a growing natbin file and
/// keeps the saturation report fresh through the online incremental engine.
int run_watch(int argc, char** argv) {
    std::string path;
    std::size_t points = 48;
    std::size_t threads = 0;
    std::uint64_t every_events = 0;
    double every_seconds = 0.0;
    std::size_t poll_ms = 100;
    std::size_t max_reports = 0;
    std::string checkpoint_path;
    UniformityMetric metric = UniformityMetric::mk_proximity;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--points=", 0) == 0) {
            points = parse_grid_points(arg, "--points=");
        } else if (arg.rfind("--metric=", 0) == 0) {
            metric = parse_metric(arg, "--metric=");
        } else if (arg.rfind("--threads=", 0) == 0) {
            threads = parse_thread_count(arg, "--threads=");
        } else if (arg.rfind("--every-events=", 0) == 0) {
            every_events = parse_count(arg, "--every-events=");
        } else if (arg.rfind("--every-seconds=", 0) == 0) {
            every_seconds = static_cast<double>(parse_count(arg, "--every-seconds="));
        } else if (arg.rfind("--poll-ms=", 0) == 0) {
            // At 0 the writer's grace below never runs out and every poll
            // spins; past milliseconds' range the interval wraps negative.
            poll_ms = parse_bounded_count(
                arg, "--poll-ms=", 1,
                static_cast<std::size_t>(std::chrono::milliseconds::max().count()));
        } else if (arg.rfind("--max-reports=", 0) == 0) {
            max_reports = parse_count(arg, "--max-reports=");
        } else if (arg.rfind("--checkpoint=", 0) == 0) {
            checkpoint_path = arg.substr(13);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
            usage();
            return 2;
        }
    }
    if (path.empty()) {
        usage();
        return 2;
    }
    if (every_events == 0 && every_seconds == 0.0) every_events = 1;  // report on growth

    const auto poll = std::chrono::milliseconds(poll_ms);
    try {
        // Wait until the writer has produced a parseable header (the file
        // may not exist yet, or hold only part of the 64-byte header).
        NatbinTail tail;
        for (int attempt = 0;; ++attempt) {
            try {
                tail = open_natbin_tail(path);
                break;
            } catch (const std::exception&) {
                // ~30 s of grace for the writer to appear, then give up.
                if (attempt * poll_ms >= 30'000) throw;
                std::this_thread::sleep_for(poll);
            }
        }

        // The grid is fixed up front from the file's period of study: the
        // batch search's coarse grid, so the converged report matches
        // `find_time_scale <file> --points=N --refine-rounds=0` bitwise.
        OnlineSweepOptions options;
        options.grid = geometric_delta_grid(1, tail.period_end, points);
        options.metric = metric;
        options.num_threads = threads;

        OnlineSweepEngine engine = [&] {
            if (!checkpoint_path.empty() &&
                std::filesystem::exists(checkpoint_path)) {
                OnlineSweepEngine restored = load_checkpoint(checkpoint_path);
                // The checkpoint must match both the file AND this run's
                // analysis configuration: silently keeping a stale grid or
                // metric would break the documented bit-identity with the
                // batch run at the CURRENT flags.
                const bool same_grid =
                    std::equal(restored.grid().begin(), restored.grid().end(),
                               options.grid.begin(), options.grid.end());
                if (restored.num_nodes() != tail.num_nodes ||
                    restored.directed() != tail.directed ||
                    restored.synced_events() > tail.complete_records || !same_grid ||
                    restored.options().metric != options.metric ||
                    restored.options().histogram_bins != options.histogram_bins ||
                    restored.options().shannon_slots != options.shannon_slots) {
                    throw std::runtime_error(
                        "checkpoint '" + checkpoint_path + "' does not match '" + path +
                        "' with the current --points/--metric (delete it or rerun "
                        "with the original flags)");
                }
                restored.set_num_threads(threads);  // runtime choice, not state
                std::fprintf(stderr, "resumed from %s at %llu events\n",
                             checkpoint_path.c_str(),
                             static_cast<unsigned long long>(restored.synced_events()));
                return restored;
            }
            return OnlineSweepEngine(tail.num_nodes, tail.directed, options);
        }();

        // The startup open above already validated every record present, so
        // the first reopen only checks what was appended since.  The cursor
        // (count + last validated record) makes a truncate-and-regrow between
        // polls an error instead of a silent splice of two streams, and the
        // header fields must keep matching the stream the engine was built
        // for — a writer restarting the file with different dimensions would
        // otherwise corrupt the incremental state without a diagnostic.
        const NodeId initial_nodes = tail.num_nodes;
        const Time initial_period = tail.period_end;
        const bool initial_directed = tail.directed;
        NatbinTailCursor cursor = tail_cursor(tail);
        std::uint64_t validated = cursor.validated_records;
        std::uint64_t reported_events = 0;
        std::size_t reports = 0;
        Stopwatch since_report;
        for (;;) {
            tail = open_natbin_tail(path, cursor);
            if (tail.num_nodes != initial_nodes || tail.period_end != initial_period ||
                tail.directed != initial_directed) {
                throw std::runtime_error(
                    path + ": header changed mid-watch (was " +
                    std::to_string(initial_nodes) + " nodes, T=" +
                    std::to_string(initial_period) + "; now " +
                    std::to_string(tail.num_nodes) + " nodes, T=" +
                    std::to_string(tail.period_end) +
                    ") — the file was replaced by a different stream");
            }
            cursor = tail_cursor(tail);
            validated = cursor.validated_records;
            // Records are appended in (t, u, v) order, so everything before
            // the last timestamp is final; once the writer finished, so is
            // everything else.
            const Time watermark =
                tail.finished() ? kInfiniteTime
                : tail.events.empty() ? 0
                                      : tail.events.back().t;
            engine.sync(tail.events,
                        std::max<Time>(watermark, engine.synced_watermark()));

            const bool due =
                tail.finished() ||
                (every_events != 0 && validated - reported_events >= every_events &&
                 validated > 0) ||
                (every_seconds != 0.0 && since_report.elapsed_seconds() >= every_seconds &&
                 validated > reported_events);
            if (due && validated > 0) {
                Stopwatch refresh_watch;
                const OnlineReport report = engine.refresh(tail.events);
                emit_watch_report(report, engine.synced_watermark(), tail.finished(),
                                  refresh_watch.elapsed_seconds(), metric,
                                  static_cast<std::int64_t>(reports) + 1);
                if (!checkpoint_path.empty()) save_checkpoint(checkpoint_path, engine);
                reported_events = validated;
                since_report.reset();
                ++reports;
                if (max_reports != 0 && reports >= max_reports) break;
            }
            if (tail.finished()) break;
            std::this_thread::sleep_for(poll);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    // --trace-out= and --metrics-out= apply to every subcommand (the trace
    // sink is process-global and must be installed before any scan runs),
    // so they are consumed here, ahead of the per-subcommand parsers.
    // Results are bit-identical with and without either sink.
    ObsSession obs_session;
    {
        int kept = 1;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--trace-out=", 0) == 0) {
                try {
                    obs_session.open_trace(arg.substr(12));
                } catch (const std::exception& e) {
                    std::fprintf(stderr, "error: %s\n", e.what());
                    return 1;
                }
            } else if (arg.rfind("--metrics-out=", 0) == 0) {
                obs_session.set_metrics_out(arg.substr(14));
            } else {
                argv[kept++] = argv[i];
            }
        }
        argc = kept;
    }
    if (std::strcmp(argv[1], "convert") == 0) return run_convert(argc, argv);
    if (std::strcmp(argv[1], "gen") == 0) return run_gen(argc, argv);
    if (std::strcmp(argv[1], "watch") == 0) return run_watch(argc, argv);
    std::string path;
    CsvFormat csv;
    FormatChoice format = FormatChoice::automatic;
    SweepConfig options;
    bool print_curve = false;
    bool print_json = false;
    bool print_segments = false;
    std::string dat_prefix;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--directed") {
            csv.directed = true;
        } else if (arg.rfind("--metric=", 0) == 0) {
            options.metric = parse_metric(arg, "--metric=");
        } else if (arg.rfind("--points=", 0) == 0) {
            options.coarse_points = parse_grid_points(arg, "--points=");
        } else if (arg.rfind("--refine-rounds=", 0) == 0) {
            // Linear refinement rounds around the running optimum; 0 keeps
            // the coarse geometric grid only — the mode whose output the
            // online `watch` engine reproduces bit-for-bit.
            options.refine_rounds = parse_count(arg, "--refine-rounds=");
        } else if (arg.rfind("--threads=", 0) == 0) {
            // The Delta grid is swept in parallel, one task per period; the
            // result is identical for every thread count (0 = all hardware
            // threads).
            options.num_threads = parse_thread_count(arg, "--threads=");
        } else if (arg.rfind("--format=", 0) == 0) {
            // Input encoding: auto sniffs the magic bytes; natbin streams
            // are mmap'd (analyzed out-of-core), text is parsed into RAM.
            format = parse_format(arg, "--format=", true);
        } else if (arg == "--curve") {
            print_curve = true;
        } else if (arg == "--json") {
            print_json = true;
        } else if (arg == "--segments") {
            print_segments = true;
        } else if (arg.rfind("--dat=", 0) == 0) {
            dat_prefix = arg.substr(6);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
            usage();
            return 2;
        }
    }
    if (path.empty()) {
        usage();
        return 2;
    }

    try {
        const LoadedStream loaded = load_input(path, format, csv);
        const auto stats = compute_stream_stats(loaded.stream);
        if (!print_json) print_stream_summary(std::cout, path, stats);

        const SaturationResult result = find_saturation_scale(loaded.stream, options);
        if (print_json) {
            std::cout << saturation_result_to_json(result) << '\n';
            if (print_segments) {
                std::cout << segmented_saturation_to_json(
                                 find_segmented_saturation(loaded.stream, {}, options))
                          << '\n';
            }
            return 0;
        }
        if (print_segments) {
            const auto segmented = find_segmented_saturation(loaded.stream, {}, options);
            if (segmented.split) {
                std::cout << "activity regimes detected: gamma_high = "
                          << format_duration(static_cast<double>(segmented.gamma_high))
                          << ", gamma_low = "
                          << format_duration(static_cast<double>(segmented.gamma_low))
                          << ", safe recommendation = "
                          << format_duration(static_cast<double>(segmented.recommended))
                          << " (" << segmented.segments.size() << " segments)\n";
            } else {
                std::cout << "activity is homogeneous: single regime\n";
            }
        }
        if (print_curve) {
            print_saturation_report(std::cout, result);
        } else {
            std::cout << saturation_summary(result) << '\n';
        }
        std::cout << "recommendation: aggregate at Delta <= " << result.gamma
                  << " ticks (" << format_duration(static_cast<double>(result.gamma))
                  << ") to preserve propagation properties; prefer one order of\n"
                     "magnitude below gamma when a finer-grained view is acceptable "
                     "(paper Section 8).\n";

        if (!dat_prefix.empty()) {
            DataSeries curve;
            curve.name = "metric curve for " + path;
            curve.column_names = {"delta_ticks", "mk_proximity", "stddev", "shannon10", "cre"};
            for (const auto& point : result.curve) {
                curve.rows.push_back({static_cast<double>(point.delta),
                                      point.scores.mk_proximity, point.scores.std_deviation,
                                      point.scores.shannon_entropy, point.scores.cre});
            }
            write_dat(dat_prefix + "_curve.dat", curve);

            DataSeries icd;
            icd.name = "occupancy ICD at gamma";
            icd.column_names = {"occupancy", "P(X>occ)"};
            for (const auto& [x, y] : result.gamma_histogram.icd_points()) {
                icd.rows.push_back({x, y});
            }
            write_dat(dat_prefix + "_icd.dat", icd);
            std::cout << "wrote " << dat_prefix << "_curve.dat and " << dat_prefix
                      << "_icd.dat\n";
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}

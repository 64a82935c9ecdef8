// daemon_enron: an in-process natscaled (service::Server, 2 strand workers,
// engine_threads = 1) on a Unix socket, driven by one closed-loop
// service::Client.  One operation registers a stream with the default
// 48-point grid, sends 160 sequenced ingest frames each followed by a
// saturation query, closes the stream and asks for the sealed final curve.
//
// Known answer: the sealed final curve must equal, byte for byte, the curve
// of a cold batch search (refine_rounds = 0) over the same events — the
// batch = daemon invariant.  The traced run replays the same batches and
// queries through StreamIngestor + OnlineSweepEngine, timing ingest, sync
// and refresh, and every replayed report must equal the daemon's.
#include <malloc.h>

#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <thread>

#include "core/delta_grid.hpp"
#include "natscale/report_schema.hpp"
#include "online/incremental_sweep.hpp"
#include "online/stream_ingestor.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/proc_rss.hpp"
#include "workloads.hpp"

namespace perfbench {

using natscale::Event;
using natscale::LinkStream;
using natscale::OnlineReport;
using natscale::ReportContext;
using natscale::UniformityMetric;
namespace service = natscale::service;

namespace {

constexpr int kSetupsPerOp = 5;
constexpr std::size_t kBatches = 160;
constexpr std::uint32_t kGridPoints = 48;
constexpr const char* kSocketPath = "natbench.sock";

/// natscaled in this process, serving on the working directory's socket
/// until destroyed.
class Daemon {
public:
    Daemon() {
        service::ServerOptions options;
        options.unix_path = kSocketPath;
        options.workers = 2;
        options.engine_threads = 1;
        server_ = std::make_unique<service::Server>(options);
        io_ = std::thread([this] {
            // A dead IO loop also surfaces as failed client requests, which
            // fail the session; here it is only reported.
            try {
                server_->run();
            } catch (const std::exception& error) {
                failure_ = error.what();
            }
        });
    }

    ~Daemon() {
        server_->stop();
        io_.join();
        std::filesystem::remove(kSocketPath);
        if (!failure_.empty()) {
            std::cerr << "natbench: daemon IO loop failed: " << failure_ << '\n';
        }
    }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

private:
    std::unique_ptr<service::Server> server_;
    std::string failure_;  // written by io_, read after it is joined
    std::thread io_;
};

/// A running daemon plus its one client connection.
struct Endpoint {
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<service::Client> client;

    void start() {
        client.reset();
        daemon.reset();
        // Hand the old daemon's freed heap back to the OS.  The new daemon's
        // threads may get other malloc arenas; without this, whether two
        // sessions' memory stacks up in peak RSS is left to chance.
        ::malloc_trim(0);
        daemon = std::make_unique<Daemon>();
        client = std::make_unique<service::Client>(service::Client::connect_unix(kSocketPath));
    }
};

std::size_t batch_size(const LinkStream& stream) {
    return (stream.num_events() + kBatches - 1) / kBatches;
}

/// What one daemon session sent back, and how long each request took.
struct SessionLog {
    double wall_s = 0.0;
    std::vector<double> ingest_ms;
    std::vector<double> query_ms;
    std::vector<std::string> reports;  // saturation replies, in send order
    std::string final_curve;
    std::uint64_t requests = 0;
};

SessionLog run_session(service::Client& client, const std::string& name,
                       const LinkStream& stream, Tracer* tracer) {
    SessionLog log;
    service::RegisterStream spec;
    spec.name = name;
    spec.num_nodes = stream.num_nodes();
    spec.directed = stream.directed();
    spec.period_end = stream.period_end();
    spec.grid_points = kGridPoints;

    Scope session(tracer, "service.session");
    const service::StreamAck ack = client.register_stream(spec);
    ++log.requests;
    const std::span<const Event> events = stream.events();
    const std::size_t step = batch_size(stream);
    for (std::size_t first = 0; first < events.size(); first += step) {
        const auto batch = events.subspan(first, std::min(step, events.size() - first));
        Scope ingest(tracer, "service.ingest", session.id());
        client.ingest(ack.stream_id, first + 1, batch);
        log.ingest_ms.push_back(1e3 * ingest.close());

        Scope query(tracer, "service.query", session.id());
        service::QueryResult reply =
            client.query(service::Query{ack.stream_id, service::QueryKind::saturation, false, 0});
        log.query_ms.push_back(1e3 * query.close());
        log.reports.push_back(std::move(reply.json));
        log.requests += 2;
    }
    {
        Scope close(tracer, "service.close", session.id());
        client.close_stream(ack.stream_id);
        log.final_curve =
            client.query(service::Query{ack.stream_id, service::QueryKind::curve, true, 0}).json;
        log.requests += 2;
    }
    log.wall_s = session.close();
    return log;
}

/// The daemon's answer for a closed stream, as the batch search computes it.
std::string batch_curve_json(const natscale::SaturationResult& batch, const std::string& name,
                             std::uint64_t events) {
    OnlineReport report;
    report.points = batch.curve;
    report.gamma = batch.gamma;
    report.at_gamma = batch.at_gamma;
    report.events_covered = events;
    ReportContext context;
    context.stream = name;
    context.events = events;
    context.watermark = natscale::kInfiniteTime;
    context.sealed_only = true;
    context.finished = true;
    return natscale::curve_json(report, batch.metric, context);
}

/// A saturation reply without its trailing wall-clock field, the one part
/// of the report that legitimately differs between two computations.
std::string without_refresh_seconds(const std::string& json) {
    return json.substr(0, json.find(",\"refresh_seconds\""));
}

struct ReplayLayers {
    double ingest_s = 0.0;
    double sync_s = 0.0;
    double refresh_s = 0.0;
    double total_s = 0.0;
    std::vector<double> refresh_ms;
    std::uint64_t sealed_events = 0;
};

/// Replays a session's batches and queries through the online layer alone
/// and returns every report that differs from the daemon's.
std::vector<std::string> replay(const LinkStream& stream, const std::string& name,
                                const SessionLog& log, Tracer* tracer, ReplayLayers& layers) {
    Scope root(tracer, "online.replay");
    natscale::IngestorOptions ingest_options;
    ingest_options.period_end = stream.period_end();
    natscale::StreamIngestor ingestor(stream.num_nodes(), stream.directed(), ingest_options);
    natscale::OnlineSweepOptions engine_options;
    engine_options.grid = natscale::geometric_delta_grid(1, stream.period_end(), kGridPoints);
    engine_options.num_threads = 1;
    natscale::OnlineSweepEngine engine(stream.num_nodes(), stream.directed(), engine_options);
    const UniformityMetric metric = engine_options.metric;

    std::vector<std::string> mismatches;
    const std::span<const Event> events = stream.events();
    const std::size_t step = batch_size(stream);
    std::size_t index = 0;
    for (std::size_t first = 0; first < events.size(); first += step, ++index) {
        Scope ingest(tracer, "online.ingest", root.id());
        ingestor.append(events.subspan(first, std::min(step, events.size() - first)));
        layers.ingest_s += ingest.close();

        Scope sync(tracer, "online.sync", root.id());
        engine.sync(ingestor.finalized(), ingestor.watermark());
        layers.sync_s += sync.close();

        Scope refresh(tracer, "online.refresh", root.id());
        const std::vector<Event> snapshot = ingestor.snapshot_events();
        const OnlineReport report = engine.refresh(snapshot);
        const double refresh_s = refresh.close();
        layers.refresh_s += refresh_s;
        layers.refresh_ms.push_back(1e3 * refresh_s);

        ReportContext context;
        context.stream = name;
        context.events = report.events_covered;
        context.watermark = ingestor.watermark();
        const std::string expected = natscale::online_report_json(report, metric, context);
        if (index >= log.reports.size() ||
            without_refresh_seconds(log.reports[index]) != without_refresh_seconds(expected)) {
            mismatches.push_back("saturation report " + std::to_string(index + 1) +
                                 " differs from the online replay");
        }
    }
    ingestor.close();
    engine.sync(ingestor.finalized(), ingestor.watermark());
    const OnlineReport final_report = engine.refresh(ingestor.finalized());
    ReportContext context;
    context.stream = name;
    context.events = final_report.events_covered;
    context.watermark = ingestor.watermark();
    context.sealed_only = true;
    context.finished = true;
    if (natscale::curve_json(final_report, metric, context) != log.final_curve) {
        mismatches.push_back("sealed final curve differs from the online replay");
    }
    layers.sealed_events = ingestor.finalized().size();
    layers.total_s = root.close();
    return mismatches;
}

}  // namespace

RunResult run_daemon(const RunOptions& options, const Workload& workload, Tracer* tracer) {
    RunResult result;
    const KnownAnswer expected =
        known_answer(workload, options.size, options.gen_seed, options.corrupt_expected);

    // Every session runs on a freshly set-up input and daemon, so memory
    // stays flat and set-up samples spread over the whole window.
    Endpoint endpoint;
    std::optional<LinkStream> input;
    std::vector<double> setup_s, generate_s;
    const auto prepare = [&] {
        for (int i = 0; i < kSetupsPerOp; ++i) {
            input.reset();
            Scope setup(tracer, "setup");
            double generated_s = 0.0;
            input.emplace(make_input(workload, options.size, options.gen_seed, options.seed,
                                     &generated_s));
            endpoint.start();
            setup_s.push_back(setup.close());
            generate_s.push_back(generated_s);
        }
    };
    prepare();
    result.facts["events"] = std::to_string(input->num_events());
    result.facts["nodes"] = std::to_string(input->num_nodes());
    result.facts["batch_events"] = std::to_string(batch_size(*input));

    // The batch reference, computed once and outside the timed sessions.
    const natscale::SaturationResult batch = daemon_reference(*input);
    const std::vector<std::string> batch_failures = check_answer(batch, expected);

    std::vector<SessionLog> sessions;
    std::vector<ReplayLayers> replays;
    std::uint64_t errors = 0;
    const Clock::time_point window = Clock::now();
    int round = 0;
    do {
        if (round > 0) prepare();
        const LinkStream& stream = *input;
        const std::string name = "enron-" + std::to_string(++round);
        try {
            SessionLog log = run_session(*endpoint.client, name, stream, tracer);
            std::vector<std::string> failures = batch_failures;
            if (log.final_curve != batch_curve_json(batch, name, stream.num_events())) {
                failures.push_back("sealed final curve of " + name +
                                   " differs from the cold batch search");
            }
            if (tracer != nullptr) {
                ReplayLayers layers;
                for (std::string& failure : replay(stream, name, log, tracer, layers)) {
                    failures.push_back(std::move(failure));
                }
                replays.push_back(std::move(layers));
            }
            sessions.push_back(std::move(log));
            result.count_op(failures);
        } catch (const service::remote_error& error) {
            ++errors;
            result.count_op({std::string("daemon error frame: ") + error.what()});
        } catch (const std::exception& error) {
            result.count_op({std::string("exception: ") + error.what()});
        }
    } while (seconds_since(window) < options.seconds);
    endpoint.client.reset();
    endpoint.daemon.reset();

    std::vector<double> walls, queries, ingests, refreshes;
    std::vector<Metrics> traced;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        const SessionLog& log = sessions[i];
        walls.push_back(log.wall_s);
        queries.insert(queries.end(), log.query_ms.begin(), log.query_ms.end());
        ingests.insert(ingests.end(), log.ingest_ms.begin(), log.ingest_ms.end());
        if (i >= replays.size()) continue;
        const ReplayLayers& layers = replays[i];
        refreshes.insert(refreshes.end(), layers.refresh_ms.begin(), layers.refresh_ms.end());
        traced.push_back({
            {"online.ingest_s", layers.ingest_s},
            {"online.sync_s", layers.sync_s},
            {"online.refresh_s", layers.refresh_s},
            {"online.sealed_events", static_cast<double>(layers.sealed_events)},
            {"service.overhead_s", log.wall_s - layers.total_s},
            {"service.requests", static_cast<double>(log.requests)},
        });
    }

    if (tracer == nullptr) {
        result.metrics["wall_s"] = median(walls);
        result.metrics["setup_s"] = median(setup_s);
        result.metrics["peak_rss_mib"] = natscale::peak_rss_mib();
        result.metrics["query_p50_ms"] = median(queries);
        result.metrics["query_p90_ms"] = quantile(queries, 0.9);
        result.facts["query_samples"] = std::to_string(queries.size());
        result.facts["op_wall_s"] = join(walls);
        return result;
    }

    result.set_medians(traced);
    result.metrics["gen.generate_s"] = median(generate_s);
    result.metrics["online.refresh_p50_ms"] = median(refreshes);
    result.metrics["service.ingest_rtt_p50_ms"] = median(ingests);
    result.metrics["service.errors"] = static_cast<double>(errors);
    return result;
}

}  // namespace perfbench

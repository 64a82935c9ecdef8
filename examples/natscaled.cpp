// natscaled: the multi-client time-scale service daemon.
//
// Hosts many named link streams behind the NATSVC01 wire protocol
// (docs/protocol.md): clients register or re-attach to streams, push
// sequenced event batches, and query the current saturation scale, the
// Gamma(Delta) curve, occupancy histograms or ingest status without
// blocking each other's ingestion.  Answers over the sealed prefix are
// bit-identical to a cold batch sweep of the same events
// (find_time_scale --refine-rounds=0); CI locks this in.
//
//   natscaled --listen=unix:/tmp/natscale.sock
//   natscaled --listen=tcp:127.0.0.1:0 --state-dir=/var/lib/natscale
//
// With --state-dir, checkpoint frames and graceful shutdown (SIGINT,
// SIGTERM, or a shutdown frame) persist every stream; on restart the
// daemon reloads them and ingestors resume from their acked sequence.
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "examples/example_cli.hpp"
#include "natscale/report_schema.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"

using natscale::service::Server;
using natscale::service::ServerOptions;

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: natscaled [options]\n"
                 "\n"
                 "  --listen=unix:PATH       listen on a Unix socket (existing file replaced)\n"
                 "  --listen=tcp:HOST:PORT   listen on numeric IPv4 HOST (port 0 = ephemeral,\n"
                 "                           the bound port is printed on stdout)\n"
                 "  --state-dir=DIR          persist streams to DIR (enables checkpoint/resume\n"
                 "                           across restarts); created when missing\n"
                 "  --workers=N              analysis worker threads (default 2)\n"
                 "  --engine-threads=N       per-engine sweep threads (default 1; results are\n"
                 "                           identical for every value)\n"
                 "  --metrics-out=FILE       append a metrics_snapshot JSON line every 5 s\n"
                 "                           (plus a final one at exit); '-' for stdout\n"
                 "  --trace-out=FILE         write Chrome-trace-format spans of every request\n"
                 "\n"
                 "At least one --listen is required.  Both listener kinds may be active\n"
                 "at once.  SIGINT/SIGTERM shut down gracefully (checkpointing first\n"
                 "when --state-dir is set).\n");
}

Server* g_server = nullptr;

// Async-signal-safe: Server::stop() is an atomic store + eventfd write.
void handle_signal(int) {
    if (g_server != nullptr) g_server->stop();
}

/// `--listen=unix:PATH` or `--listen=tcp:HOST:PORT` into `options`.
void parse_listen(const std::string& arg, ServerOptions& options) {
    const std::string value = natscale::examples::option_value(arg, "--listen=");
    if (value.rfind("unix:", 0) == 0) {
        options.unix_path = value.substr(5);
        if (options.unix_path.empty()) {
            natscale::examples::invalid_value("--listen=", value, "unix:PATH");
        }
        return;
    }
    if (value.rfind("tcp:", 0) == 0) {
        const std::string rest = value.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
            natscale::examples::invalid_value("--listen=", value, "tcp:HOST:PORT");
        }
        options.tcp_host = rest.substr(0, colon);
        options.tcp_port = static_cast<std::uint16_t>(natscale::examples::parse_bounded_count(
            "--listen=" + rest.substr(colon + 1), "--listen=", 0, 65535));
        return;
    }
    natscale::examples::invalid_value("--listen=", value, "unix:PATH or tcp:HOST:PORT");
}

/// Appends one metrics_snapshot line to `path` every ~5 s until stopped,
/// plus a final line on the way out, so a crashed daemon still leaves its
/// last heartbeat on disk.  Sequence numbers make gaps visible to readers.
class MetricsHeartbeat {
public:
    explicit MetricsHeartbeat(std::string path) : path_(std::move(path)) {
        thread_ = std::thread([this] { run(); });
    }

    ~MetricsHeartbeat() {
        {
            std::lock_guard lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
        emit();  // final snapshot after the server drained
    }

private:
    void run() {
        std::unique_lock lock(mutex_);
        for (;;) {
            emit();
            if (cv_.wait_for(lock, std::chrono::seconds(5), [this] { return stop_; })) {
                return;
            }
        }
    }

    void emit() {
        const std::string line =
            natscale::metrics_snapshot_json(natscale::obs::metrics_snapshot(), seq_++);
        if (path_ == "-") {
            std::printf("%s\n", line.c_str());
            std::fflush(stdout);
            return;
        }
        std::ofstream out(path_, std::ios::app);
        out << line << "\n";
    }

    std::string path_;
    std::int64_t seq_ = 0;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
    ServerOptions options;
    std::string metrics_out;
    std::string trace_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--listen=", 0) == 0) {
            parse_listen(arg, options);
        } else if (arg.rfind("--state-dir=", 0) == 0) {
            options.state_dir = arg.substr(12);
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            metrics_out = natscale::examples::option_value(arg, "--metrics-out=");
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            trace_out = natscale::examples::option_value(arg, "--trace-out=");
        } else if (arg.rfind("--workers=", 0) == 0) {
            options.workers = natscale::examples::parse_thread_count(arg, "--workers=");
        } else if (arg.rfind("--engine-threads=", 0) == 0) {
            options.engine_threads =
                natscale::examples::parse_thread_count(arg, "--engine-threads=");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
            return 2;
        }
    }
    if (options.unix_path.empty() && options.tcp_host.empty()) {
        std::fprintf(stderr, "natscaled: at least one --listen is required\n");
        usage();
        return 2;
    }
    if (options.workers == 0) {
        natscale::examples::invalid_value("--workers=", "0", "at least 1");
    }

    try {
        std::unique_ptr<natscale::obs::TraceSink> sink;
        if (!trace_out.empty()) {
            sink = std::make_unique<natscale::obs::TraceSink>(trace_out);
            natscale::obs::install_trace_sink(sink.get());
        }
        Server server(std::move(options));
        g_server = &server;
        std::signal(SIGINT, handle_signal);
        std::signal(SIGTERM, handle_signal);
        std::signal(SIGPIPE, SIG_IGN);
        if (server.tcp_port() != 0) {
            // Scripts (CI daemon-smoke) read the ephemeral port from here.
            std::printf("natscaled listening tcp port %u\n",
                        static_cast<unsigned>(server.tcp_port()));
            std::fflush(stdout);
        }
        {
            std::unique_ptr<MetricsHeartbeat> heartbeat;
            if (!metrics_out.empty()) {
                heartbeat = std::make_unique<MetricsHeartbeat>(metrics_out);
            }
            server.run();
        }
        g_server = nullptr;
        if (sink != nullptr) {
            natscale::obs::install_trace_sink(nullptr);
            sink->close();
        }
    } catch (const std::exception& error) {
        std::fprintf(stderr, "natscaled: %s\n", error.what());
        return 1;
    }
    return 0;
}

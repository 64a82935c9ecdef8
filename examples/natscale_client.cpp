// natscale_client: command-line client for the natscaled daemon.
//
// Speaks the NATSVC01 protocol (docs/protocol.md) over a Unix or TCP
// socket.  The ingest subcommand implements the full resumable-session
// dance: it registers (or re-attaches with the stream's resume token),
// learns the server's acked sequence, and sends exactly the events the
// server has not applied yet — so re-running the same command after a
// crash, a kill -9 or a daemon restart continues where the ack left off
// and the final stream state is identical to an uninterrupted run.
//
//   natscale_client --connect=unix:/tmp/natscale.sock
//       ingest mystream events.natbin --token-file=/tmp/my.token --close
//   natscale_client --connect=tcp:127.0.0.1:7001 query mystream saturation
//
// --abort-after=K is for fault-injection tests and CI: after K events are
// acked the client writes a deliberately TRUNCATED frame (a header that
// promises more bytes than follow) and hard-exits without closing the
// socket cleanly — the worst-case client death the resume protocol must
// absorb.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "examples/example_cli.hpp"
#include "linkstream/binary_io.hpp"
#include "natscale/api.hpp"
#include "service/client.hpp"
#include "util/json.hpp"

using namespace natscale;
using examples::invalid_value;
using examples::option_value;
using examples::parse_bounded_count;
using examples::parse_count;
using examples::parse_grid_points;
using examples::parse_metric;
using service::Client;
using service::Query;
using service::QueryKind;
using service::RegisterStream;
using service::StreamAck;

namespace {

void usage() {
    std::fprintf(stderr,
                 "usage: natscale_client --connect=unix:PATH|tcp:HOST:PORT <command>\n"
                 "\n"
                 "commands:\n"
                 "  ingest NAME FILE [--token-file=PATH] [--batch=N] [--close]\n"
                 "                   [--abort-after=K] [--points=N] [--metric=M]\n"
                 "                   [--horizon=T] [--drop-duplicates] [--reject-late]\n"
                 "      register NAME (stream geometry from FILE) or re-attach with the\n"
                 "      token in --token-file, then send every event the server has not\n"
                 "      acked yet.  --close seals the stream afterwards.  --abort-after=K\n"
                 "      dies mid-frame after K acked events (fault injection).\n"
                 "  query NAME saturation|curve|histogram|status [--sealed-only] [--delta=T]\n"
                 "      print the stream's schema-1 JSON report.\n"
                 "  close NAME       seal a stream (no more events; watermark -> infinity)\n"
                 "  list             stream names, one per line\n"
                 "  checkpoint       persist all streams to the daemon's state dir\n"
                 "  ping             round-trip check\n"
                 "  stats            print the daemon's live metrics snapshot (JSON)\n"
                 "  shutdown         checkpoint (when configured) and stop the daemon\n");
}

/// A --connect target, read before any socket opens so that a malformed one
/// exits 2 naming the flag whether or not a daemon is listening.
struct Target {
    bool tcp = false;
    std::string path_or_host;
    std::uint16_t port = 0;

    Client connect() const {
        return tcp ? Client::connect_tcp(path_or_host, port) : Client::connect_unix(path_or_host);
    }
};

Target parse_target(const std::string& target) {
    if (target.rfind("unix:", 0) == 0) return {false, target.substr(5), 0};
    if (target.rfind("tcp:", 0) == 0) {
        const std::string rest = target.substr(4);
        const std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
            invalid_value("--connect=", target, "tcp:HOST:PORT");
        }
        const std::size_t port =
            parse_bounded_count("--connect=" + rest.substr(colon + 1), "--connect=", 1, 65535);
        return {true, rest.substr(0, colon), static_cast<std::uint16_t>(port)};
    }
    invalid_value("--connect=", target, "unix:PATH or tcp:HOST:PORT");
}

/// Exits 2 with `message`: an argument the client does not take.
[[noreturn]] void reject(const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
}

/// Exits 2 when argv holds anything from `first` on: the command reads no
/// more arguments.
void reject_extra(int argc, char** argv, int first) {
    if (first < argc) reject("unexpected argument '" + std::string(argv[first]) + "'");
}

std::uint64_t read_token_file(const std::string& path) {
    std::ifstream in(path);
    std::uint64_t token = 0;
    if (in >> token) return token;
    return 0;  // missing or unreadable: caller registers fresh
}

void write_token_file(const std::string& path, std::uint64_t token) {
    std::ofstream out(path, std::ios::trunc);
    out << token << "\n";
    if (!out) {
        std::fprintf(stderr, "cannot write token file '%s'\n", path.c_str());
        std::exit(1);
    }
}

void print_stream_ack(const char* action, const StreamAck& ack) {
    JsonWriter json;
    json.begin_object();
    json.field("action", action);
    json.field("stream", ack.name);
    json.field("acked_seq", ack.acked_seq);
    json.field("sealed_events", ack.sealed_events);
    json.field("watermark_ticks", ack.watermark == kInfiniteTime
                                      ? std::int64_t{-1}
                                      : static_cast<std::int64_t>(ack.watermark));
    json.end_object();
    std::printf("%s\n", json.str().c_str());
}

/// Dies the way a kill -9 mid-send looks to the server: writes a frame
/// header announcing a payload that never arrives, then exits without
/// closing the stream.  Exit code 3 so scripts can tell it apart.
[[noreturn]] void abort_mid_frame(Client& client) {
    std::vector<std::byte> torn;
    service::append_frame(torn, service::MessageType::ingest,
                          std::vector<std::byte>(64));
    torn.resize(torn.size() - 32);  // promise 64 payload bytes, send 32
    client.send_raw(torn);
    std::fflush(stdout);
    std::_Exit(3);
}

/// The ingest command's arguments, as read from the command line.
struct IngestArgs {
    std::string path;
    std::string token_file;
    std::size_t batch = 4096;
    std::uint64_t abort_after = 0;
    bool close_at_end = false;
    RegisterStream reg;
};

IngestArgs parse_ingest(const std::string& name, int argc, char** argv, int first_option) {
    IngestArgs args;
    args.reg.name = name;
    for (int i = first_option; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--token-file=", 0) == 0) {
            args.token_file = option_value(arg, "--token-file=");
        } else if (arg.rfind("--batch=", 0) == 0) {
            args.batch = parse_bounded_count(arg, "--batch=", 1,
                                             std::numeric_limits<std::size_t>::max());
        } else if (arg.rfind("--abort-after=", 0) == 0) {
            args.abort_after = parse_count(arg, "--abort-after=");
        } else if (arg == "--close") {
            args.close_at_end = true;
        } else if (arg.rfind("--points=", 0) == 0) {
            args.reg.grid_points =
                static_cast<std::uint32_t>(parse_grid_points(arg, "--points="));
        } else if (arg.rfind("--metric=", 0) == 0) {
            args.reg.metric = static_cast<std::uint32_t>(parse_metric(arg, "--metric="));
        } else if (arg.rfind("--horizon=", 0) == 0) {
            args.reg.reorder_horizon = static_cast<Time>(parse_bounded_count(
                arg, "--horizon=", 0, std::numeric_limits<Time>::max()));
        } else if (arg == "--drop-duplicates") {
            args.reg.drop_duplicates = true;
        } else if (arg == "--reject-late") {
            args.reg.reject_late = true;
        } else if (args.path.empty() && arg.rfind("--", 0) != 0) {
            args.path = arg;
        } else {
            reject("unknown option '" + arg + "'");
        }
    }
    if (args.path.empty()) reject("ingest: an event file is required");
    return args;
}

int run_ingest(Client& client, IngestArgs args) {
    const LoadedStream loaded = load_stream_auto(args.path);
    const std::span<const Event> events = loaded.stream.events();
    RegisterStream& reg = args.reg;
    reg.num_nodes = loaded.stream.num_nodes();
    reg.directed = loaded.stream.directed();
    reg.period_end = loaded.stream.period_end();

    // Attach with the saved token when there is one; register otherwise.
    StreamAck ack;
    const std::uint64_t token =
        args.token_file.empty() ? 0 : read_token_file(args.token_file);
    if (token != 0) {
        ack = client.attach(reg.name, token);
        print_stream_ack("attach", ack);
    } else {
        ack = client.register_stream(reg);
        if (!args.token_file.empty()) write_token_file(args.token_file, ack.resume_token);
        print_stream_ack("register", ack);
    }

    // The server applied events 1..acked_seq already; send the rest.
    std::uint64_t sent = ack.acked_seq;
    service::IngestAck ingest_ack;
    ingest_ack.acked_seq = ack.acked_seq;
    while (sent < events.size()) {
        const std::size_t n =
            std::min<std::size_t>(args.batch, events.size() - static_cast<std::size_t>(sent));
        ingest_ack = client.ingest(ack.stream_id, sent + 1,
                                   events.subspan(static_cast<std::size_t>(sent), n));
        sent = ingest_ack.acked_seq;
        if (args.abort_after != 0 && sent >= args.abort_after) abort_mid_frame(client);
    }

    JsonWriter json;
    json.begin_object();
    json.field("action", "ingest");
    json.field("stream", reg.name);
    json.field("acked_seq", ingest_ack.acked_seq);
    json.field("accepted", ingest_ack.accepted);
    json.field("duplicates_dropped", ingest_ack.duplicates_dropped);
    json.field("late_dropped", ingest_ack.late_dropped);
    json.end_object();
    std::printf("%s\n", json.str().c_str());

    if (args.close_at_end) print_stream_ack("close", client.close_stream(ack.stream_id));
    return 0;
}

/// The query command's request, with its stream still to be resolved.
Query parse_query(int argc, char** argv, int first_option) {
    Query query;
    std::string kind;
    for (int i = first_option; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sealed-only") {
            query.sealed_only = true;
        } else if (arg.rfind("--delta=", 0) == 0) {
            query.delta = static_cast<Time>(parse_bounded_count(
                arg, "--delta=", 0, std::numeric_limits<Time>::max()));
        } else if (kind.empty() && arg.rfind("--", 0) != 0) {
            kind = arg;
        } else {
            reject("unknown option '" + arg + "'");
        }
    }
    if (kind == "saturation") {
        query.kind = QueryKind::saturation;
    } else if (kind == "curve") {
        query.kind = QueryKind::curve;
    } else if (kind == "histogram") {
        query.kind = QueryKind::histogram;
    } else if (kind == "status") {
        query.kind = QueryKind::status;
    } else {
        invalid_value("query", kind, "saturation|curve|histogram|status");
    }
    return query;
}

bool known_command(const std::string& command) {
    for (const char* known :
         {"ingest", "query", "close", "list", "checkpoint", "ping", "stats", "shutdown"}) {
        if (command == known) return true;
    }
    return false;
}

}  // namespace

int main(int argc, char** argv) {
    std::string target;
    int i = 1;
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--connect=", 0) == 0) {
            target = option_value(arg, "--connect=");
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            break;  // first non-global argument: the command
        }
    }
    if (target.empty() || i >= argc) {
        usage();
        return 2;
    }
    const std::string command = argv[i];

    // Every argument is read before the socket opens: a bad one exits 2
    // naming it whether or not a daemon is listening.
    const Target endpoint = parse_target(target);
    if (!known_command(command)) {
        std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
        usage();
        return 2;
    }
    std::string name;
    IngestArgs ingest;
    Query query;
    if (command == "ingest" || command == "query" || command == "close") {
        if (i + 1 >= argc) reject(command + ": a stream name is required");
        name = argv[i + 1];
        if (command == "ingest") ingest = parse_ingest(name, argc, argv, i + 2);
        if (command == "query") query = parse_query(argc, argv, i + 2);
        if (command == "close") reject_extra(argc, argv, i + 2);
    } else {
        reject_extra(argc, argv, i + 1);
    }

    try {
        Client client = endpoint.connect();
        if (command == "ingest") return run_ingest(client, std::move(ingest));
        if (command == "query") {
            query.stream_id = client.attach(name, 0).stream_id;  // read-only attach
            std::printf("%s\n", client.query(query).json.c_str());
            return 0;
        }
        if (command == "close") {
            const StreamAck ack = client.attach(name, 0);
            print_stream_ack("close", client.close_stream(ack.stream_id));
            return 0;
        }
        if (command == "list") {
            for (const std::string& stream : client.list_streams()) {
                std::printf("%s\n", stream.c_str());
            }
            return 0;
        }
        if (command == "checkpoint") {
            client.checkpoint();
            std::printf("checkpointed\n");
            return 0;
        }
        if (command == "ping") {
            client.ping();
            std::printf("pong\n");
            return 0;
        }
        if (command == "stats") {
            std::printf("%s\n", client.stats().c_str());
            return 0;
        }
        // The one known command left: shutdown.
        client.shutdown_server();
        std::printf("shutdown acknowledged\n");
        return 0;
    } catch (const service::remote_error& error) {
        std::fprintf(stderr, "natscale_client: server error %u: %s\n",
                     static_cast<unsigned>(error.code()), error.what());
        return 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "natscale_client: %s\n", error.what());
        return 1;
    }
}

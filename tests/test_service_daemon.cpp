// End-to-end fault injection against an in-process natscaled Server over a
// Unix socket: registration/ingest/query parity with a local StreamSession
// (and therefore, by tests/test_session.cpp, with a cold batch sweep),
// duplicate-replay idempotence, mid-frame client death with exact resume,
// stale tokens, sequence gaps, malformed-frame containment, and
// checkpoint -> restart -> bitwise-identical answers.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "linkstream/io.hpp"
#include "natscale/api.hpp"
#include "online/incremental_sweep.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "testing/temp_files.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/wire.hpp"

namespace natscale::service {
namespace {

/// Nondecreasing-timestamp event soup (everything is accepted and seals on
/// close — the precondition for exact parity with the mirror session).
std::vector<Event> random_events(std::uint64_t seed, NodeId n, Time period,
                                 std::size_t count) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(count);
    Time t = 0;
    while (events.size() < count) {
        t += rng.bernoulli(0.4) ? 0 : rng.uniform_int(1, period / 40 + 1);
        if (t >= period) t = period - 1;
        auto u = static_cast<NodeId>(rng.uniform_index(n));
        auto v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        if (u > v) std::swap(u, v);
        events.push_back({u, v, t});
    }
    return events;
}

std::string read_bytes(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

/// In-process daemon on a scratch Unix socket; run() on its own thread.
class Daemon {
public:
    explicit Daemon(std::string state_dir = "") {
        ServerOptions options;
        options.unix_path = socket_path_;
        options.state_dir = std::move(state_dir);
        options.workers = 2;
        server_ = std::make_unique<Server>(options);
        io_ = std::thread([server = server_.get()] { server->run(); });
    }

    ~Daemon() { stop(); }

    void stop() {
        if (server_) {
            server_->stop();
            io_.join();
            server_.reset();
        }
        std::filesystem::remove(socket_path_);
    }

    Client connect() { return Client::connect_unix(socket_path_); }

private:
    std::string socket_path_ = testing::temp_path("natscaled_test.sock");
    std::unique_ptr<Server> server_;
    std::thread io_;
};

RegisterStream stream_spec(const std::string& name, NodeId n, Time period) {
    RegisterStream spec;
    spec.name = name;
    spec.num_nodes = n;
    spec.period_end = period;
    spec.grid_points = 10;
    return spec;
}

/// A local StreamSession built exactly as the daemon builds one from the
/// same RegisterStream — the parity oracle for query answers.
StreamSession mirror_session(const RegisterStream& spec) {
    SessionOptions options;
    options.config.metric = static_cast<UniformityMetric>(spec.metric);
    options.config.coarse_points = spec.grid_points;
    options.config.shannon_slots = spec.shannon_slots;
    options.config.num_threads = 1;
    options.ingest.period_end = spec.period_end;
    options.ingest.reorder_horizon = spec.reorder_horizon;
    return StreamSession(static_cast<NodeId>(spec.num_nodes), spec.directed,
                         std::move(options));
}

/// The daemon's curve answer for a closed stream, stripped of nothing:
/// curve_json carries no wall-clock field, so it is compared bitwise.
std::string expected_curve(StreamSession& session, const std::string& name) {
    const OnlineReport report = session.report();
    ReportContext context;
    context.stream = name;
    context.events = report.events_covered;
    context.watermark = session.watermark();
    context.sealed_only = false;
    context.finished = session.closed();
    return curve_json(report, session.metric(), context);
}

TEST(ServiceDaemon, IngestQueryParityWithLocalSession) {
    Daemon daemon;
    Client client = daemon.connect();

    const RegisterStream spec = stream_spec("parity", 20, 400);
    const auto events = random_events(3, 20, 400, 500);

    const StreamAck ack = client.register_stream(spec);
    EXPECT_EQ(ack.acked_seq, 0u);
    EXPECT_NE(ack.resume_token, 0u);

    StreamSession mirror = mirror_session(spec);
    std::size_t sent = 0;
    while (sent < events.size()) {
        const std::size_t n = std::min<std::size_t>(128, events.size() - sent);
        const auto batch = std::span<const Event>(events).subspan(sent, n);
        const IngestAck ingest_ack = client.ingest(ack.stream_id, sent + 1, batch);
        mirror.append(batch);
        sent += n;
        EXPECT_EQ(ingest_ack.acked_seq, sent);
        EXPECT_EQ(ingest_ack.accepted, mirror.counters().accepted);
    }
    client.close_stream(ack.stream_id);
    mirror.close();

    Query query;
    query.stream_id = ack.stream_id;
    query.kind = QueryKind::curve;
    EXPECT_EQ(client.query(query).json, expected_curve(mirror, "parity"));
}

TEST(ServiceDaemon, DuplicateReplayIsIdempotent) {
    Daemon daemon;
    Client client = daemon.connect();
    const auto events = random_events(9, 12, 200, 96);
    const StreamAck ack = client.register_stream(stream_spec("dup", 12, 200));

    const auto span = std::span<const Event>(events);
    const IngestAck first = client.ingest(ack.stream_id, 1, span.subspan(0, 64));
    EXPECT_EQ(first.acked_seq, 64u);

    // Exact replay of an acked frame: skipped, counters unchanged.
    const IngestAck replay = client.ingest(ack.stream_id, 1, span.subspan(0, 64));
    EXPECT_EQ(replay.acked_seq, 64u);
    EXPECT_EQ(replay.accepted, first.accepted);

    // Overlapping frame: only the unseen suffix is applied.
    const IngestAck overlap = client.ingest(ack.stream_id, 33, span.subspan(32, 64));
    EXPECT_EQ(overlap.acked_seq, 96u);
    EXPECT_EQ(overlap.accepted, 96u);

    // A gap past acked_seq + 1 is refused with sequence_gap.
    try {
        client.ingest(ack.stream_id, 99, span.subspan(0, 8));
        FAIL() << "sequence gap accepted";
    } catch (const remote_error& error) {
        EXPECT_EQ(error.code(), ErrorCode::sequence_gap);
    }
}

TEST(ServiceDaemon, KilledMidFrameClientResumesExactly) {
    Daemon daemon;
    const RegisterStream spec = stream_spec("resume", 16, 300);
    const auto events = random_events(17, 16, 300, 400);
    const auto span = std::span<const Event>(events);

    StreamSession mirror = mirror_session(spec);
    std::uint64_t token = 0;
    std::uint64_t stream_id = 0;

    {
        Client victim = daemon.connect();
        const StreamAck ack = victim.register_stream(spec);
        token = ack.resume_token;
        stream_id = ack.stream_id;
        victim.ingest(stream_id, 1, span.subspan(0, 150));

        // Die mid-frame: a header promising 64 payload bytes, then 32, then
        // the socket is torn down without a clean close.
        std::vector<std::byte> torn;
        append_frame(torn, MessageType::ingest, std::vector<std::byte>(64));
        torn.resize(torn.size() - 32);
        victim.send_raw(torn);
        ::shutdown(victim.fd(), SHUT_RDWR);
    }  // ~Client closes the fd

    // The survivor re-attaches with the token, learns what was applied,
    // and continues from exactly there.
    Client survivor = daemon.connect();
    const StreamAck resumed = survivor.attach("resume", token);
    EXPECT_EQ(resumed.stream_id, stream_id);
    EXPECT_EQ(resumed.acked_seq, 150u);

    mirror.append(span.subspan(0, static_cast<std::size_t>(resumed.acked_seq)));
    std::size_t sent = static_cast<std::size_t>(resumed.acked_seq);
    while (sent < events.size()) {
        const std::size_t n = std::min<std::size_t>(100, events.size() - sent);
        survivor.ingest(stream_id, sent + 1, span.subspan(sent, n));
        mirror.append(span.subspan(sent, n));
        sent += n;
    }
    survivor.close_stream(stream_id);
    mirror.close();

    Query query;
    query.stream_id = stream_id;
    query.kind = QueryKind::curve;
    EXPECT_EQ(survivor.query(query).json, expected_curve(mirror, "resume"));
}

TEST(ServiceDaemon, StaleTokenAndUnknownStreamAreRejected) {
    Daemon daemon;
    Client client = daemon.connect();
    const StreamAck ack = client.register_stream(stream_spec("guarded", 8, 100));

    try {
        client.attach("guarded", ack.resume_token + 1);
        FAIL() << "stale token accepted";
    } catch (const remote_error& error) {
        EXPECT_EQ(error.code(), ErrorCode::stale_token);
    }
    try {
        client.attach("no-such-stream", 0);
        FAIL() << "unknown stream accepted";
    } catch (const remote_error& error) {
        EXPECT_EQ(error.code(), ErrorCode::unknown_stream);
    }

    // Read-only attach (token 0) works and hides the real token.
    const StreamAck ro = client.attach("guarded", 0);
    EXPECT_EQ(ro.stream_id, ack.stream_id);
    EXPECT_EQ(ro.resume_token, 0u);
}

TEST(ServiceDaemon, RegisterTakesTheGridPointsTheCommandLinesTake) {
    // [2, kMaxGridPoints], as --points: a one-point grid has no second end.
    Daemon daemon;
    Client client = daemon.connect();
    for (const std::uint32_t points : {1u, 513u}) {
        RegisterStream spec = stream_spec("grid" + std::to_string(points), 8, 100);
        spec.grid_points = points;
        try {
            client.register_stream(spec);
            FAIL() << "grid_points " << points << " accepted";
        } catch (const remote_error& error) {
            EXPECT_EQ(error.code(), ErrorCode::bad_request);
            EXPECT_STREQ(error.what(), "grid_points must be in [2, 512]");
        }
    }
    for (const std::uint32_t points : {2u, 512u}) {
        RegisterStream spec = stream_spec("grid" + std::to_string(points), 8, 100);
        spec.grid_points = points;
        EXPECT_NO_THROW(client.register_stream(spec)) << points;
    }
}

TEST(ServiceDaemon, OversizedRegisterIsRefusedAndSiblingsKeepAnswering) {
    // A register whose engine would need more than kMaxRegisterStateBytes is
    // refused before anything is allocated; the daemon, the connection and
    // the streams it already hosts carry on.
    Daemon daemon;
    Client client = daemon.connect();
    const StreamAck sibling = client.register_stream(stream_spec("sibling", 10, 200));
    client.ingest(sibling.stream_id, 1, random_events(17, 10, 200, 120));
    client.close_stream(sibling.stream_id);
    Query query;
    query.stream_id = sibling.stream_id;
    query.kind = QueryKind::curve;
    const std::string before = client.query(query).json;

    RegisterStream huge = stream_spec("huge", 10, 200);
    huge.num_nodes = std::numeric_limits<NodeId>::max();  // 2^32 - 1: 240 GB of sparse rows
    huge.grid_points = 2;
    ASSERT_GT(OnlineSweepEngine::initial_state_bytes(std::numeric_limits<NodeId>::max(), 2,
                                                     Histogram01::kDefaultBins),
              kMaxRegisterStateBytes);
    try {
        client.register_stream(huge);
        FAIL() << "oversized register accepted";
    } catch (const remote_error& error) {
        EXPECT_EQ(error.code(), ErrorCode::bad_request);
        EXPECT_NE(std::string(error.what()).find("exceeds the per-stream limit"),
                  std::string::npos)
            << error.what();
    }

    EXPECT_EQ(client.query(query).json, before);
    Client other = daemon.connect();
    EXPECT_EQ(other.query(query).json, before);
    EXPECT_EQ(other.list_streams(), std::vector<std::string>{"sibling"});
    // The bound admits the largest dense engine the online rule builds:
    // n = 1024 at 24 grid points, the CI daemon-smoke streams.
    EXPECT_EQ(OnlineSweepEngine::initial_backend(1024, 24), ReachabilityBackend::dense);
    EXPECT_LE(OnlineSweepEngine::initial_state_bytes(1024, 24, Histogram01::kDefaultBins),
              kMaxRegisterStateBytes);
}

TEST(ServiceDaemon, MalformedFramesAreContainedPerConnection) {
    Daemon daemon;

    {
        // Garbage with a plausible length prefix: the server answers with an
        // error frame and hangs up this connection only.
        Client vandal = daemon.connect();
        std::vector<std::byte> junk(64, std::byte{0xA5});
        junk[0] = std::byte{16};  // LE length 16, type 0xA5A5A5A5
        vandal.send_raw(junk);
        try {
            while (true) {
                const Frame frame = vandal.read_frame();
                if (frame.type == MessageType::error) break;
            }
        } catch (const std::exception&) {
            // EOF before/after the error frame is equally acceptable
        }
    }

    // The daemon is fine: a fresh client gets full service.
    Client client = daemon.connect();
    client.ping();
    const StreamAck ack = client.register_stream(stream_spec("alive", 8, 100));
    EXPECT_NE(ack.resume_token, 0u);
}

TEST(ServiceDaemon, CheckpointRestartAnswersBitIdentically) {
    const std::string state_dir = testing::temp_path("natscaled_state");
    std::filesystem::remove_all(state_dir);

    const RegisterStream spec = stream_spec("durable", 18, 350);
    const auto events = random_events(29, 18, 350, 450);
    const auto span = std::span<const Event>(events);

    std::string before;
    std::uint64_t token = 0;
    {
        Daemon daemon(state_dir);
        Client client = daemon.connect();
        const StreamAck ack = client.register_stream(spec);
        token = ack.resume_token;
        client.ingest(ack.stream_id, 1, span.subspan(0, 300));
        client.checkpoint();

        Query query;
        query.stream_id = ack.stream_id;
        query.kind = QueryKind::curve;
        before = client.query(query).json;
        daemon.stop();  // graceful: checkpoints again on exit
    }

    {
        Daemon daemon(state_dir);
        Client client = daemon.connect();
        const StreamAck ack = client.attach("durable", token);
        EXPECT_EQ(ack.acked_seq, 300u);

        Query query;
        query.stream_id = ack.stream_id;
        query.kind = QueryKind::curve;
        EXPECT_EQ(client.query(query).json, before);

        // With no new events, a checkpoint rewrites the state file byte for
        // byte: the reload lost nothing the file holds.
        const std::string state_file = state_dir + "/durable.natstream";
        const std::string persisted = read_bytes(state_file);
        ASSERT_FALSE(persisted.empty());
        client.checkpoint();
        EXPECT_EQ(read_bytes(state_file), persisted);

        // Ingestion resumes against the restored session; final state
        // matches an uninterrupted local run.
        StreamSession mirror = mirror_session(spec);
        mirror.append(span.subspan(0, 300));
        client.ingest(ack.stream_id, 301, span.subspan(300));
        mirror.append(span.subspan(300));
        client.close_stream(ack.stream_id);
        mirror.close();
        EXPECT_EQ(client.query(query).json, expected_curve(mirror, "durable"));
    }
    std::filesystem::remove_all(state_dir);
}

TEST(ServiceDaemon, CorruptStateFilesFailStartup) {
    // A damaged .natstream must stop the daemon from starting with io_error,
    // never load a quietly wrong stream.
    const std::string state_dir = testing::temp_path("natscaled_corrupt_state");
    std::filesystem::remove_all(state_dir);
    {
        Daemon daemon(state_dir);
        Client client = daemon.connect();
        const StreamAck ack = client.register_stream(stream_spec("fragile", 12, 200));
        client.ingest(ack.stream_id, 1, random_events(53, 12, 200, 120));
        daemon.stop();  // graceful: persists the stream
    }
    const std::string state_file = state_dir + "/fragile.natstream";
    const std::string image = read_bytes(state_file);
    ASSERT_GT(image.size(), 100u);

    const std::string socket_path = testing::temp_path("natscaled_corrupt.sock");
    const auto start_with = [&](const std::string& bytes) {
        write_bytes(state_file, bytes);
        ServerOptions options;
        options.unix_path = socket_path;
        options.state_dir = state_dir;
        Server server(options);
    };
    EXPECT_NO_THROW(start_with(image));

    const std::size_t step = image.size() / 64 + 1;
    for (std::size_t cut = 0; cut < image.size(); cut += step) {
        EXPECT_THROW(start_with(image.substr(0, cut)), io_error) << "cut=" << cut;
    }

    // A byte flipped inside the embedded session snapshot, with the outer
    // checksum recomputed: the snapshot's own checks must catch it.  The
    // snapshot follows magic, version, reserved, token, acked_seq and the
    // length-prefixed name, then its own u64 length.
    const std::size_t snapshot_begin = 8 + 4 + 4 + 8 + 8 + 4 + std::string("fragile").size() + 8;
    const std::size_t snapshot_end = image.size() - 8;
    for (const std::size_t at : {snapshot_begin, snapshot_begin + 40,
                                 (snapshot_begin + snapshot_end) / 2, snapshot_end - 1}) {
        std::string flipped = image;
        flipped[at] = static_cast<char>(flipped[at] ^ 0x5a);
        std::byte checksum[8];
        wire::put_u64(checksum, wire::fnv1a64(reinterpret_cast<const std::byte*>(flipped.data()),
                                              snapshot_end));
        flipped.replace(snapshot_end, 8, reinterpret_cast<const char*>(checksum), 8);
        EXPECT_THROW(start_with(flipped), io_error) << "flip at " << at;
    }
    std::filesystem::remove_all(state_dir);
}

TEST(ServiceDaemon, ThreadCountsAboveTheCeilingFailConstruction) {
    // Checked before any listener binds, so neither server below ever
    // starts a thread; run() is never called.
    const std::string socket_path = testing::temp_path("natscaled_threads.sock");
    const auto construct = [&](std::size_t workers, std::size_t engine_threads) {
        ServerOptions options;
        options.unix_path = socket_path;
        options.workers = workers;
        options.engine_threads = engine_threads;
        Server server(options);
    };
    EXPECT_THROW(construct(ThreadPool::kMaxThreads + 1, 1), contract_error);
    EXPECT_THROW(construct(2, ThreadPool::kMaxThreads + 1), contract_error);
    EXPECT_THROW(construct(0, 1), contract_error);
    std::filesystem::remove(socket_path);
}

TEST(ServiceDaemon, StatsReturnsLiveMetricsSnapshot) {
    // The stats message surfaces the process-wide obs registry over the
    // wire: after some traffic the snapshot must be well-formed schema-1
    // JSON and carry the request counter plus this stream's ingest totals.
    Daemon daemon;
    Client client = daemon.connect();
    const StreamAck ack = client.register_stream(stream_spec("observed", 10, 150));
    const auto events = random_events(41, 10, 150, 64);
    client.ingest(ack.stream_id, 1, events);

    const std::string json = client.stats();
    EXPECT_NE(json.find("\"schema\":1"), std::string::npos);
    EXPECT_NE(json.find("\"metrics_snapshot\""), std::string::npos);
    EXPECT_NE(json.find("\"service.requests\""), std::string::npos);
    EXPECT_NE(json.find("\"service.stream.observed.ingest_events\""), std::string::npos);

    // A second snapshot after more requests shows a larger request count:
    // the registry is live, not a boot-time copy.
    const auto count_of = [](const std::string& text, const std::string& name) {
        const std::string key = '"' + name + "\":";
        const std::size_t at = text.find(key);
        EXPECT_NE(at, std::string::npos) << name;
        return std::stoull(text.substr(at + key.size()));
    };
    client.ping();
    client.ping();
    const std::string later = client.stats();
    EXPECT_GT(count_of(later, "service.requests"), count_of(json, "service.requests"));
}

}  // namespace
}  // namespace natscale::service

// The natscaled wire protocol, version 1 (documented in docs/protocol.md).
//
// A connection is a byte stream (TCP or Unix socket) carrying length-
// prefixed frames; every frame is an 8-byte little-endian header followed
// by a typed payload:
//
//   offset  size  field
//   0       4     payload length (u32 LE), <= kMaxFramePayload
//   4       4     message type (u32 LE, MessageType enumerator)
//   8       ...   payload
//
// The session opens with hello / hello_ack (magic + version negotiation);
// everything after that is request/response with the server free to
// interleave replies to different requests (replies carry the stream id
// they answer about).  Integers are little-endian, strings are a u32
// length followed by raw bytes (no terminator), events are the natbin
// record layout (u u32, v u32, t i64; linkstream/binary_io's put_record /
// get_record).  Every payload is parsed by the one bounds-checked
// wire::Reader (util/wire.hpp), whose failures throw protocol_error.
//
// Resumable ingestion.  Every ingested event carries an implicit sequence
// number (1-based position in the client's send order); an ingest frame
// says "here are events first_seq .. first_seq+count-1".  The server
// tracks acked_seq per stream — the highest contiguous sequence applied —
// and acks it after every frame.  A client that reconnects re-attaches
// with the stream's resume token, learns acked_seq from the stream_ack,
// and resends from acked_seq + 1.  Frames at or below acked_seq are
// skipped idempotently (duplicate replay after a lost ack is harmless); a
// frame starting beyond acked_seq + 1 is a sequence_gap error.  The resume
// token is minted at registration and survives daemon checkpoint/restart;
// attaching with a wrong token is a stale_token error.
//
// Malformed input (oversized frames, unknown types, truncated payloads,
// out-of-range enumerators) must never crash the server: parsers throw
// protocol_error, which the connection layer answers with an error frame
// and a disconnect (fuzzed in tests/test_service_protocol.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "linkstream/event.hpp"
#include "util/types.hpp"

namespace natscale::service {

inline constexpr char kServiceMagic[8] = {'N', 'A', 'T', 'S', 'V', 'C', '0', '1'};
inline constexpr std::uint32_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound on a frame payload: large enough for ~1M events per ingest
/// batch, small enough that a hostile length prefix cannot balloon memory.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 24;  // 16 MiB

/// Bound on every string field (names, error messages).
inline constexpr std::size_t kMaxStringBytes = 4096;

enum class MessageType : std::uint32_t {
    hello = 1,            // client -> server: magic + version
    hello_ack = 2,        // server -> client: magic + version
    error = 3,            // server -> client: code + message
    register_stream = 4,  // create a stream and its engine
    stream_ack = 5,       // registration/attach reply: id, token, acked_seq
    attach_stream = 6,    // resume an existing stream by name + token
    ingest = 7,           // sequenced event batch
    ingest_ack = 8,       // acked_seq + counter deltas
    close_stream = 9,     // no more events: seal everything
    query = 10,           // saturation / curve / histogram / status
    query_result = 11,    // the versioned JSON report (natscale/report_schema)
    checkpoint = 12,      // persist sessions to the state dir now
    checkpoint_ack = 13,
    list_streams = 14,
    stream_list = 15,
    ping = 16,
    pong = 17,
    shutdown = 18,        // graceful stop (checkpoints first)
    stats = 19,           // client -> server: observability snapshot request
    stats_result = 20,    // server -> client: metrics_snapshot_json
};

enum class ErrorCode : std::uint32_t {
    bad_frame = 1,      // unparsable payload, oversized frame, bad magic
    unknown_type = 2,   // MessageType the server does not know
    unknown_stream = 3, // no stream with that id/name
    stale_token = 4,    // attach token does not match the stream's
    bad_request = 5,    // well-formed but invalid (bad query kind, ...)
    sequence_gap = 6,   // ingest frame skips past acked_seq + 1
    ingest_error = 7,   // event rejected by the stream contract
    internal = 8,       // unexpected server-side failure
};

enum class QueryKind : std::uint32_t {
    saturation = 1,  // current report: gamma + scores (online_report_json)
    curve = 2,       // every grid point (curve_json)
    histogram = 3,   // occupancy histogram of one period (histogram_json)
    status = 4,      // ingest counters, watermark, sealed/total events
};

/// Thrown by parsers on malformed payloads; the connection layer converts
/// it into an error frame.
class protocol_error : public std::runtime_error {
public:
    protocol_error(ErrorCode code, const std::string& what)
        : std::runtime_error(what), code_(code) {}
    ErrorCode code() const noexcept { return code_; }

private:
    ErrorCode code_;
};

struct Frame {
    MessageType type = MessageType::error;
    std::vector<std::byte> payload;
};

/// Appends one framed message to `out` (header + payload).
/// Preconditions: payload.size() <= kMaxFramePayload.
void append_frame(std::vector<std::byte>& out, MessageType type,
                  std::span<const std::byte> payload);

/// Incremental frame decoder over an arbitrary-chunked byte stream: feed()
/// buffered reads, next() pops complete frames.  An oversized length
/// prefix throws protocol_error(bad_frame) immediately — before buffering
/// the body.  Unknown message types are NOT rejected here (the dispatcher
/// answers unknown_type and survives); only the framing itself is policed.
class FrameReader {
public:
    void feed(std::span<const std::byte> data);

    /// Pops the next complete frame into `frame`; false when more bytes
    /// are needed.
    bool next(Frame& frame);

    /// Bytes buffered but not yet returned (for tests / backpressure).
    std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

private:
    std::vector<std::byte> buffer_;
    std::size_t consumed_ = 0;
};

// --- message payloads -------------------------------------------------------

struct Hello {
    std::uint32_t version = kProtocolVersion;
};

struct ErrorMessage {
    ErrorCode code = ErrorCode::internal;
    std::string message;
};

struct RegisterStream {
    std::string name;            // non-empty, <= kMaxStringBytes
    std::uint64_t num_nodes = 0;
    bool directed = false;
    Time period_end = 0;         // exclusive end of the period of study
    std::uint32_t grid_points = 48;  // coarse geometric grid size
    std::uint32_t metric = 0;        // UniformityMetric enumerator
    std::uint32_t histogram_bins = 0;  // 0 = library default
    std::uint32_t shannon_slots = 10;
    Time reorder_horizon = 0;
    bool drop_duplicates = false;
    bool reject_late = false;
};

struct AttachStream {
    std::string name;
    std::uint64_t resume_token = 0;
};

/// Reply to register_stream and attach_stream: everything a (re)connecting
/// ingestor needs to continue exactly where it left off.
struct StreamAck {
    std::string name;
    std::uint64_t stream_id = 0;
    std::uint64_t resume_token = 0;
    std::uint64_t acked_seq = 0;      // resend from acked_seq + 1
    std::uint64_t sealed_events = 0;
    Time watermark = 0;               // -1 encodes kInfiniteTime (closed)
};

struct Ingest {
    std::uint64_t stream_id = 0;
    std::uint64_t first_seq = 0;  // 1-based sequence of events.front()
    std::vector<Event> events;
};

struct IngestAck {
    std::uint64_t stream_id = 0;
    std::uint64_t acked_seq = 0;
    std::uint64_t accepted = 0;            // cumulative ingestor counters
    std::uint64_t duplicates_dropped = 0;
    std::uint64_t late_dropped = 0;
};

struct CloseStream {
    std::uint64_t stream_id = 0;
};

struct Query {
    std::uint64_t stream_id = 0;
    QueryKind kind = QueryKind::saturation;
    bool sealed_only = false;
    Time delta = 0;  // histogram queries: the grid period to report
};

struct QueryResult {
    std::uint64_t stream_id = 0;
    QueryKind kind = QueryKind::saturation;
    std::string json;  // schema-1 report (may exceed kMaxStringBytes)
};

struct StreamList {
    std::vector<std::string> names;
};

/// Reply to a stats request: the daemon's metrics registry serialized as a
/// schema-1 metrics_snapshot report (natscale/report_schema).  The stats
/// request itself carries an empty payload.
struct StatsResult {
    std::string json;  // may exceed kMaxStringBytes (rest of frame)
};

// --- encoders (payload only; wrap with append_frame) ------------------------

std::vector<std::byte> encode_hello(const Hello& hello);
std::vector<std::byte> encode_error(const ErrorMessage& error);
std::vector<std::byte> encode_register_stream(const RegisterStream& msg);
std::vector<std::byte> encode_attach_stream(const AttachStream& msg);
std::vector<std::byte> encode_stream_ack(const StreamAck& msg);
std::vector<std::byte> encode_ingest(const Ingest& msg);
std::vector<std::byte> encode_ingest_ack(const IngestAck& msg);
std::vector<std::byte> encode_close_stream(const CloseStream& msg);
std::vector<std::byte> encode_query(const Query& msg);
std::vector<std::byte> encode_query_result(const QueryResult& msg);
std::vector<std::byte> encode_stream_list(const StreamList& msg);
std::vector<std::byte> encode_stats_result(const StatsResult& msg);

// --- parsers (throw protocol_error(bad_frame) on malformed payloads) --------

Hello parse_hello(std::span<const std::byte> payload);
ErrorMessage parse_error(std::span<const std::byte> payload);
RegisterStream parse_register_stream(std::span<const std::byte> payload);
AttachStream parse_attach_stream(std::span<const std::byte> payload);
StreamAck parse_stream_ack(std::span<const std::byte> payload);
Ingest parse_ingest(std::span<const std::byte> payload);
IngestAck parse_ingest_ack(std::span<const std::byte> payload);
CloseStream parse_close_stream(std::span<const std::byte> payload);
Query parse_query(std::span<const std::byte> payload);
QueryResult parse_query_result(std::span<const std::byte> payload);
StreamList parse_stream_list(std::span<const std::byte> payload);
StatsResult parse_stats_result(std::span<const std::byte> payload);

}  // namespace natscale::service

#include "service/protocol.hpp"

#include <cstring>

#include "linkstream/binary_io.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace natscale::service {

namespace {

[[noreturn]] void throw_bad_frame(const std::string& /*source*/, const std::string& what) {
    throw protocol_error(ErrorCode::bad_frame, what);
}

/// Every parser reads its payload through this reader and ends with
/// done(): trailing bytes mean a framing bug (or an attack), not a benign
/// extension.
wire::Reader payload_reader(std::span<const std::byte> payload) {
    static const std::string source = "frame";
    return wire::Reader(payload, "payload", source, throw_bad_frame);
}

bool get_bool(wire::Reader& in) {
    const std::uint32_t value = in.u32();
    if (value > 1) in.fail("bad boolean field");
    return value != 0;
}

std::string get_string(wire::Reader& in) {
    const std::uint32_t length = in.u32();
    if (length > kMaxStringBytes) in.fail("string field too long");
    return std::string(reinterpret_cast<const char*>(in.take(length)), length);
}

void put_string(wire::Writer& out, const std::string& text) {
    NATSCALE_EXPECTS(text.size() <= kMaxStringBytes);
    out.u32(static_cast<std::uint32_t>(text.size()));
    out.raw(text.data(), text.size());
}

void put_bool(wire::Writer& out, bool value) { out.u32(value ? 1u : 0u); }

}  // namespace

void append_frame(std::vector<std::byte>& out, MessageType type,
                  std::span<const std::byte> payload) {
    NATSCALE_EXPECTS(payload.size() <= kMaxFramePayload);
    std::byte header[kFrameHeaderBytes];
    wire::put_u32(header, static_cast<std::uint32_t>(payload.size()));
    wire::put_u32(header + 4, static_cast<std::uint32_t>(type));
    out.insert(out.end(), header, header + kFrameHeaderBytes);
    out.insert(out.end(), payload.begin(), payload.end());
}

void FrameReader::feed(std::span<const std::byte> data) {
    // Compact lazily: only once the consumed prefix dominates the buffer.
    if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), data.begin(), data.end());
}

bool FrameReader::next(Frame& frame) {
    if (buffered() < kFrameHeaderBytes) return false;
    const std::byte* header = buffer_.data() + consumed_;
    const std::uint32_t length = wire::get_u32(header);
    if (length > kMaxFramePayload) {
        throw protocol_error(ErrorCode::bad_frame, "frame payload too large");
    }
    if (buffered() < kFrameHeaderBytes + length) return false;
    frame.type = static_cast<MessageType>(wire::get_u32(header + 4));
    frame.payload.assign(header + kFrameHeaderBytes,
                         header + kFrameHeaderBytes + length);
    consumed_ += kFrameHeaderBytes + length;
    return true;
}

// --- hello ------------------------------------------------------------------

std::vector<std::byte> encode_hello(const Hello& hello) {
    wire::Writer out;
    out.raw(kServiceMagic, sizeof(kServiceMagic));
    out.u32(hello.version);
    return std::move(out.bytes());
}

Hello parse_hello(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    if (std::memcmp(in.take(sizeof(kServiceMagic)), kServiceMagic,
                    sizeof(kServiceMagic)) != 0) {
        in.fail("bad service magic");
    }
    Hello hello;
    hello.version = in.u32();
    in.done();
    return hello;
}

// --- error ------------------------------------------------------------------

std::vector<std::byte> encode_error(const ErrorMessage& error) {
    wire::Writer out;
    out.u32(static_cast<std::uint32_t>(error.code));
    put_string(out, error.message.size() <= kMaxStringBytes
                        ? error.message
                        : error.message.substr(0, kMaxStringBytes));
    return std::move(out.bytes());
}

ErrorMessage parse_error(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    ErrorMessage error;
    const std::uint32_t code = in.u32();
    if (code < 1 || code > static_cast<std::uint32_t>(ErrorCode::internal)) {
        in.fail("bad error code");
    }
    error.code = static_cast<ErrorCode>(code);
    error.message = get_string(in);
    in.done();
    return error;
}

// --- register_stream --------------------------------------------------------

std::vector<std::byte> encode_register_stream(const RegisterStream& msg) {
    wire::Writer out;
    put_string(out, msg.name);
    out.u64(msg.num_nodes);
    put_bool(out, msg.directed);
    out.i64(msg.period_end);
    out.u32(msg.grid_points);
    out.u32(msg.metric);
    out.u32(msg.histogram_bins);
    out.u32(msg.shannon_slots);
    out.i64(msg.reorder_horizon);
    put_bool(out, msg.drop_duplicates);
    put_bool(out, msg.reject_late);
    return std::move(out.bytes());
}

RegisterStream parse_register_stream(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    RegisterStream msg;
    msg.name = get_string(in);
    if (msg.name.empty()) in.fail("empty stream name");
    msg.num_nodes = in.u64();
    msg.directed = get_bool(in);
    msg.period_end = in.i64();
    msg.grid_points = in.u32();
    msg.metric = in.u32();
    msg.histogram_bins = in.u32();
    msg.shannon_slots = in.u32();
    msg.reorder_horizon = in.i64();
    msg.drop_duplicates = get_bool(in);
    msg.reject_late = get_bool(in);
    in.done();
    return msg;
}

// --- attach_stream ----------------------------------------------------------

std::vector<std::byte> encode_attach_stream(const AttachStream& msg) {
    wire::Writer out;
    put_string(out, msg.name);
    out.u64(msg.resume_token);
    return std::move(out.bytes());
}

AttachStream parse_attach_stream(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    AttachStream msg;
    msg.name = get_string(in);
    msg.resume_token = in.u64();
    in.done();
    return msg;
}

// --- stream_ack -------------------------------------------------------------

std::vector<std::byte> encode_stream_ack(const StreamAck& msg) {
    wire::Writer out;
    put_string(out, msg.name);
    out.u64(msg.stream_id);
    out.u64(msg.resume_token);
    out.u64(msg.acked_seq);
    out.u64(msg.sealed_events);
    out.i64(msg.watermark == kInfiniteTime ? std::int64_t{-1}
                                           : static_cast<std::int64_t>(msg.watermark));
    return std::move(out.bytes());
}

StreamAck parse_stream_ack(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    StreamAck msg;
    msg.name = get_string(in);
    msg.stream_id = in.u64();
    msg.resume_token = in.u64();
    msg.acked_seq = in.u64();
    msg.sealed_events = in.u64();
    const std::int64_t watermark = in.i64();
    msg.watermark = watermark == -1 ? kInfiniteTime : static_cast<Time>(watermark);
    in.done();
    return msg;
}

// --- ingest -----------------------------------------------------------------

std::vector<std::byte> encode_ingest(const Ingest& msg) {
    wire::Writer out;
    out.bytes().reserve(3 * 8 + msg.events.size() * kNatbinRecordBytes);
    out.u64(msg.stream_id);
    out.u64(msg.first_seq);
    out.u64(msg.events.size());
    for (const Event& event : msg.events) put_record(out, event);
    return std::move(out.bytes());
}

Ingest parse_ingest(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    Ingest msg;
    msg.stream_id = in.u64();
    msg.first_seq = in.u64();
    if (msg.first_seq == 0) in.fail("ingest sequence is 1-based");
    const std::uint64_t count = in.u64();
    in.require_items(count, kNatbinRecordBytes);
    msg.events.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) msg.events.push_back(get_record(in));
    in.done();
    return msg;
}

// --- ingest_ack -------------------------------------------------------------

std::vector<std::byte> encode_ingest_ack(const IngestAck& msg) {
    wire::Writer out;
    out.u64(msg.stream_id);
    out.u64(msg.acked_seq);
    out.u64(msg.accepted);
    out.u64(msg.duplicates_dropped);
    out.u64(msg.late_dropped);
    return std::move(out.bytes());
}

IngestAck parse_ingest_ack(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    IngestAck msg;
    msg.stream_id = in.u64();
    msg.acked_seq = in.u64();
    msg.accepted = in.u64();
    msg.duplicates_dropped = in.u64();
    msg.late_dropped = in.u64();
    in.done();
    return msg;
}

// --- close_stream -----------------------------------------------------------

std::vector<std::byte> encode_close_stream(const CloseStream& msg) {
    wire::Writer out;
    out.u64(msg.stream_id);
    return std::move(out.bytes());
}

CloseStream parse_close_stream(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    CloseStream msg;
    msg.stream_id = in.u64();
    in.done();
    return msg;
}

// --- query ------------------------------------------------------------------

std::vector<std::byte> encode_query(const Query& msg) {
    wire::Writer out;
    out.u64(msg.stream_id);
    out.u32(static_cast<std::uint32_t>(msg.kind));
    put_bool(out, msg.sealed_only);
    out.i64(msg.delta);
    return std::move(out.bytes());
}

Query parse_query(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    Query msg;
    msg.stream_id = in.u64();
    const std::uint32_t kind = in.u32();
    if (kind < 1 || kind > static_cast<std::uint32_t>(QueryKind::status)) in.fail("bad query kind");
    msg.kind = static_cast<QueryKind>(kind);
    msg.sealed_only = get_bool(in);
    msg.delta = in.i64();
    in.done();
    return msg;
}

// --- query_result -----------------------------------------------------------

std::vector<std::byte> encode_query_result(const QueryResult& msg) {
    // The JSON body may exceed kMaxStringBytes (a curve over a wide grid),
    // so it is the frame remainder rather than a bounded string field.
    wire::Writer out;
    out.u64(msg.stream_id);
    out.u32(static_cast<std::uint32_t>(msg.kind));
    out.raw(msg.json.data(), msg.json.size());
    return std::move(out.bytes());
}

QueryResult parse_query_result(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    QueryResult msg;
    msg.stream_id = in.u64();
    const std::uint32_t kind = in.u32();
    if (kind < 1 || kind > static_cast<std::uint32_t>(QueryKind::status)) in.fail("bad query kind");
    msg.kind = static_cast<QueryKind>(kind);
    const std::size_t remaining = in.remaining();
    msg.json = std::string(reinterpret_cast<const char*>(in.take(remaining)), remaining);
    in.done();
    return msg;
}

// --- stream_list ------------------------------------------------------------

std::vector<std::byte> encode_stream_list(const StreamList& msg) {
    wire::Writer out;
    out.u64(msg.names.size());
    for (const std::string& name : msg.names) put_string(out, name);
    return std::move(out.bytes());
}

StreamList parse_stream_list(std::span<const std::byte> payload) {
    wire::Reader in = payload_reader(payload);
    StreamList msg;
    const std::uint64_t count = in.u64();
    in.require_items(count, 4);  // every name costs at least its length field
    msg.names.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) msg.names.push_back(get_string(in));
    in.done();
    return msg;
}

// --- stats_result -----------------------------------------------------------

std::vector<std::byte> encode_stats_result(const StatsResult& msg) {
    // Like query_result, the JSON body is the frame remainder: a registry
    // with many instruments can exceed kMaxStringBytes.
    wire::Writer out;
    out.raw(msg.json.data(), msg.json.size());
    return std::move(out.bytes());
}

StatsResult parse_stats_result(std::span<const std::byte> payload) {
    StatsResult msg;
    msg.json = std::string(reinterpret_cast<const char*>(payload.data()), payload.size());
    return msg;
}

}  // namespace natscale::service

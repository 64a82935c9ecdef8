#include "linkstream/binary_io.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>

#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace natscale {

namespace {

using wire::get_u32;
using wire::get_u64;
using wire::put_u32;
using wire::put_u64;

// The zero-copy mmap path aliases the on-disk records as Events; these pin
// down the layout it relies on.  A platform where they fail would need
// explicit (de)serialization — the endianness fallback below handles the
// byte order half; the layout half holds on every ABI we target.
static_assert(sizeof(Event) == kNatbinRecordBytes);
static_assert(alignof(Event) == 8);
static_assert(std::is_trivially_copyable_v<Event>);
static_assert(offsetof(Event, u) == 0);
static_assert(offsetof(Event, v) == 4);
static_assert(offsetof(Event, t) == 8);

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// Write buffer of the streaming writer: 16k events = 256 KiB per flush.
constexpr std::size_t kWriterBufferEvents = 16 * 1024;

void encode_event(std::byte* out, const Event& e) {
    if constexpr (kLittleEndian) {
        std::memcpy(out, &e, kNatbinRecordBytes);
    } else {
        put_u32(out, e.u);
        put_u32(out + 4, e.v);
        put_u64(out + 8, static_cast<std::uint64_t>(e.t));
    }
}

Event decode_event(const std::byte* in) {
    if constexpr (kLittleEndian) {
        Event e;
        std::memcpy(&e, in, kNatbinRecordBytes);
        return e;
    } else {
        return Event{get_u32(in), get_u32(in + 4),
                     static_cast<Time>(get_u64(in + 8))};
    }
}

struct NatbinHeader {
    bool directed = false;
    bool has_labels = false;
    NodeId num_nodes = 0;
    Time period_end = 0;
    std::uint64_t num_events = 0;
    std::uint64_t events_offset = 0;
    std::uint64_t label_bytes = 0;
};

constexpr std::uint32_t kFlagDirected = 1u << 0;
constexpr std::uint32_t kFlagLabels = 1u << 1;

std::vector<std::byte> encode_header(const NatbinHeader& h) {
    wire::Writer out;
    out.raw(kNatbinMagic, sizeof(kNatbinMagic));
    out.u32(1);
    out.u32((h.directed ? kFlagDirected : 0u) | (h.has_labels ? kFlagLabels : 0u));
    out.u64(h.num_nodes);
    out.i64(h.period_end);
    out.u64(h.num_events);
    out.u64(h.events_offset);
    out.u64(h.label_bytes);
    out.u64(0);  // reserved
    return std::move(out.bytes());
}

/// Parses and cross-checks the fixed header against the file size.  Every
/// arithmetic step is overflow-checked so a hostile header can never drive
/// an out-of-bounds read.  In tail mode (`tail` true) the event-count
/// cross-checks are skipped: a live file's header count lags the records on
/// disk until the writer's finish(), and a trailing partial record is a
/// writer mid-append — the caller derives the complete-record count from
/// the file size instead.
NatbinHeader parse_header(const std::string& path, std::span<const std::byte> file,
                          bool tail = false) {
    const std::size_t size = file.size();
    wire::Reader in(file.first(std::min(size, kNatbinHeaderBytes)), "natbin header", path,
                    throw_io_error);
    if (size < kNatbinHeaderBytes) {
        in.fail("truncated natbin header (" + std::to_string(size) + " bytes, need " +
                std::to_string(kNatbinHeaderBytes) + ")");
    }
    if (std::memcmp(in.take(sizeof(kNatbinMagic)), kNatbinMagic, sizeof(kNatbinMagic)) != 0) {
        in.fail("not a natbin file (bad magic)");
    }
    const std::uint32_t version = in.u32();
    if (version != 1) in.fail("unsupported natbin version " + std::to_string(version));
    const std::uint32_t flags = in.u32();
    if ((flags & ~(kFlagDirected | kFlagLabels)) != 0) in.fail("unknown natbin flags");
    NatbinHeader h;
    h.directed = (flags & kFlagDirected) != 0;
    h.has_labels = (flags & kFlagLabels) != 0;
    const std::uint64_t nodes = in.u64();
    if (nodes > std::numeric_limits<NodeId>::max()) {
        in.fail("node count " + std::to_string(nodes) + " exceeds NodeId range");
    }
    h.num_nodes = static_cast<NodeId>(nodes);
    const std::uint64_t period = in.u64();
    if (period == 0 || period > std::uint64_t(std::numeric_limits<Time>::max())) {
        in.fail("bad period_end");
    }
    h.period_end = static_cast<Time>(period);
    h.num_events = in.u64();
    h.events_offset = in.u64();
    h.label_bytes = in.u64();
    if (in.u64() != 0) in.fail("nonzero reserved header field");
    if (h.label_bytes != 0 && !h.has_labels) in.fail("label bytes without label flag");
    if (h.label_bytes > size - kNatbinHeaderBytes ||
        h.events_offset < kNatbinHeaderBytes + h.label_bytes || h.events_offset > size ||
        h.events_offset % kNatbinRecordBytes != 0) {
        in.fail("bad natbin section offsets");
    }
    if (!tail) {
        if (h.num_events > (size - h.events_offset) / kNatbinRecordBytes) {
            in.fail("truncated natbin event records (" + std::to_string(h.num_events) +
                    " declared, file holds " +
                    std::to_string((size - h.events_offset) / kNatbinRecordBytes) + ")");
        }
        if (h.events_offset + h.num_events * kNatbinRecordBytes != size) {
            in.fail("trailing bytes after natbin event records");
        }
    }
    return h;
}

std::vector<std::string> parse_labels(const std::string& path, const NatbinHeader& h,
                                      std::span<const std::byte> file) {
    std::vector<std::string> labels;
    if (!h.has_labels) return labels;
    wire::Reader in(file.subspan(kNatbinHeaderBytes, h.label_bytes), "natbin label table",
                    path, throw_io_error);
    // Cheap consistency gate before any allocation: every label costs at
    // least its 4 length bytes, so a hostile num_nodes can never drive a
    // huge reserve (fuzzed: a 4-billion-node header with a 15-byte table
    // must throw here, not OOM below).
    in.require_items(h.num_nodes, 4);
    labels.reserve(h.num_nodes);
    for (NodeId i = 0; i < h.num_nodes; ++i) {
        const std::uint32_t len = in.u32();
        labels.emplace_back(reinterpret_cast<const char*>(in.take(len)), len);
    }
    in.done();
    return labels;
}

/// The record check of every natbin reader: one sequential pass over
/// records [first, size) of `source` that checks bounds, canonical
/// endpoints and (t, u, v) sortedness, chaining the order check through
/// `prev` (the last record of an already validated prefix; t = -1 for
/// none), and releases consumed pages behind itself (a no-op for in-memory
/// sources).  Returns the distinct-timestamp count of the checked records.
std::size_t validate_records(const std::string& path, const NatbinHeader& h,
                             const EventSource& source, std::size_t first = 0,
                             Event prev = {0, 0, -1}) {
    SequentialScan scan(source);
    const auto events = source.events();
    std::size_t distinct = 0;
    for (std::size_t i = first; i < events.size(); ++i) {
        const Event e = events[i];
        if (e.u >= h.num_nodes || e.v >= h.num_nodes) {
            throw io_error(path, "event " + std::to_string(i) + " endpoint out of range");
        }
        if (e.u == e.v) {
            throw io_error(path, "event " + std::to_string(i) + " is a self-loop");
        }
        if (!h.directed && e.u > e.v) {
            throw io_error(path, "event " + std::to_string(i) +
                                     " breaks the canonical u < v endpoint order");
        }
        if (e.t < 0 || e.t >= h.period_end) {
            throw io_error(path, "event " + std::to_string(i) + " timestamp out of [0, T)");
        }
        if (prev.t >= 0 && e < prev) {
            throw io_error(path, "event " + std::to_string(i) + " breaks (t, u, v) sort order");
        }
        if (e.t != prev.t || prev.t < 0) ++distinct;
        prev = e;
        scan.consumed(i);
    }
    scan.finish();
    return distinct;
}

/// The first `count` records of `file` as an EventSource: the mapping
/// itself (zero copy) on little-endian hosts when the file is mapped, an
/// owned decoded copy otherwise.
EventSource record_source(const std::shared_ptr<const MappedFile>& file, const NatbinHeader& h,
                          std::uint64_t count) {
    if (kLittleEndian && file->is_mapped()) {
        return EventSource::mapped(file, h.events_offset, static_cast<std::size_t>(count));
    }
    const std::byte* records = file->data() + h.events_offset;
    file->advise_sequential(h.events_offset, count * kNatbinRecordBytes);
    std::vector<Event> events(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < events.size(); ++i) {
        events[i] = decode_event(records + i * kNatbinRecordBytes);
    }
    return EventSource::owning(std::move(events));
}

}  // namespace

void put_record(wire::Writer& out, const Event& event) {
    std::byte record[kNatbinRecordBytes];
    encode_event(record, event);
    out.raw(record, kNatbinRecordBytes);
}

Event get_record(wire::Reader& in) { return decode_event(in.take(kNatbinRecordBytes)); }

void save_natbin(const std::string& path, const LinkStream& stream,
                 const std::vector<std::string>& node_labels) {
    NATSCALE_EXPECTS(node_labels.empty() || node_labels.size() >= stream.num_nodes());
    NatbinWriter writer(path, stream.num_nodes(), stream.period_end(), stream.directed(),
                        node_labels);
    for (const Event& e : stream.events()) writer.append(e);
    writer.finish();
}

NatbinWriter::NatbinWriter(const std::string& path, NodeId num_nodes, Time period_end,
                           bool directed, const std::vector<std::string>& node_labels)
    : path_(path), num_nodes_(num_nodes), period_end_(period_end), directed_(directed),
      prev_{0, 0, -1} {
    NATSCALE_EXPECTS(period_end > 0);
    NATSCALE_EXPECTS(node_labels.empty() || node_labels.size() >= num_nodes);
    os_.open(path, std::ios::binary | std::ios::trunc);
    if (!os_) throw std::runtime_error("cannot open '" + path + "' for writing");

    NatbinHeader h;
    h.directed = directed;
    h.has_labels = !node_labels.empty();
    h.num_nodes = num_nodes;
    h.period_end = period_end;
    h.num_events = 0;  // patched by finish()
    wire::Writer labels;
    if (h.has_labels) {
        for (NodeId i = 0; i < num_nodes; ++i) {
            const std::string& label = node_labels[i];
            labels.u32(static_cast<std::uint32_t>(label.size()));
            labels.raw(label.data(), label.size());
        }
    }
    const std::vector<std::byte>& label_blob = labels.bytes();
    h.label_bytes = label_blob.size();
    const std::uint64_t unpadded = kNatbinHeaderBytes + h.label_bytes;
    h.events_offset = (unpadded + kNatbinRecordBytes - 1) / kNatbinRecordBytes *
                      kNatbinRecordBytes;

    const auto header = encode_header(h);
    os_.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
    if (!label_blob.empty()) {
        os_.write(reinterpret_cast<const char*>(label_blob.data()),
                  static_cast<std::streamsize>(label_blob.size()));
    }
    const std::uint64_t padding = h.events_offset - unpadded;
    for (std::uint64_t i = 0; i < padding; ++i) os_.put('\0');
    if (!os_) throw std::runtime_error("cannot write natbin header to '" + path + "'");
    buffer_.reserve(kWriterBufferEvents);
}

NatbinWriter::~NatbinWriter() {
    try {
        finish();
    } catch (...) {  // NOLINT(bugprone-empty-catch) — destructors must not throw
    }
}

void NatbinWriter::append(const Event& event) {
    NATSCALE_EXPECTS(!finished_);
    if (event.u >= num_nodes_ || event.v >= num_nodes_) {
        throw io_error(path_, "appended event endpoint out of range");
    }
    if (event.u == event.v) throw io_error(path_, "appended event is a self-loop");
    if (!directed_ && event.u > event.v) {
        throw io_error(path_, "appended event breaks the canonical u < v endpoint order");
    }
    if (event.t < 0 || event.t >= period_end_) {
        throw io_error(path_, "appended event timestamp out of [0, T)");
    }
    if (prev_.t >= 0 && event < prev_) {
        throw io_error(path_, "appended event breaks (t, u, v) sort order");
    }
    prev_ = event;
    buffer_.push_back(event);
    ++count_;
    if (buffer_.size() >= kWriterBufferEvents) flush_buffer();
}

void NatbinWriter::flush_buffer() {
    if (buffer_.empty()) return;
    if constexpr (kLittleEndian) {
        os_.write(reinterpret_cast<const char*>(buffer_.data()),
                  static_cast<std::streamsize>(buffer_.size() * kNatbinRecordBytes));
    } else {
        std::vector<std::byte> encoded(buffer_.size() * kNatbinRecordBytes);
        for (std::size_t i = 0; i < buffer_.size(); ++i) {
            encode_event(encoded.data() + i * kNatbinRecordBytes, buffer_[i]);
        }
        os_.write(reinterpret_cast<const char*>(encoded.data()),
                  static_cast<std::streamsize>(encoded.size()));
    }
    buffer_.clear();
}

void NatbinWriter::flush() {
    NATSCALE_EXPECTS(!finished_);
    flush_buffer();
    os_.flush();
    if (!os_) throw std::runtime_error("cannot flush natbin file '" + path_ + "'");
}

void NatbinWriter::finish() {
    if (finished_) return;
    finished_ = true;
    flush_buffer();
    // Patch num_events (offset 32) now that it is known.
    std::byte patch[8];
    put_u64(patch, count_);
    os_.seekp(32);
    os_.write(reinterpret_cast<const char*>(patch), sizeof(patch));
    os_.flush();
    if (!os_) throw std::runtime_error("cannot finalize natbin file '" + path_ + "'");
    os_.close();
}

LoadedStream open_natbin(const std::string& path) {
    auto file = std::make_shared<const MappedFile>(MappedFile::open(path));
    const std::span<const std::byte> bytes(file->data(), file->size());
    const NatbinHeader h = parse_header(path, bytes);
    std::vector<std::string> labels = parse_labels(path, h, bytes);
    if (h.num_events == 0) throw std::runtime_error(path + ": no events");

    EventSource source = record_source(file, h, h.num_events);
    const std::size_t distinct = validate_records(path, h, source);
    return {LinkStream::from_source(std::move(source), h.num_nodes, h.period_end, h.directed,
                                    distinct),
            std::move(labels)};
}

NatbinTail open_natbin_tail(const std::string& path, const NatbinTailCursor& cursor) {
    auto file = std::make_shared<const MappedFile>(MappedFile::open(path));
    const NatbinHeader h =
        parse_header(path, {file->data(), file->size()}, /*tail=*/true);

    NatbinTail tail;
    tail.num_nodes = h.num_nodes;
    tail.period_end = h.period_end;
    tail.directed = h.directed;
    tail.header_num_events = h.num_events;
    const std::size_t record_bytes = file->size() - h.events_offset;
    tail.complete_records = record_bytes / kNatbinRecordBytes;
    tail.trailing_bytes = record_bytes % kNatbinRecordBytes;
    const std::uint64_t prefix = cursor.validated_records;
    if (prefix > tail.complete_records) {
        throw io_error(path, "file shrank below the validated prefix (" +
                                 std::to_string(tail.complete_records) + " records, " +
                                 std::to_string(prefix) + " previously seen)");
    }
    tail.source = record_source(file, h, tail.complete_records);
    tail.events = tail.source.events();

    // Validate only the records appended since the caller's previous open;
    // the order check chains through the boundary record, so a polling
    // reader pays O(new records) per reopen, not O(file).
    Event boundary{0, 0, -1};
    if (prefix > 0) {
        boundary = tail.events[static_cast<std::size_t>(prefix) - 1];
        if (boundary != cursor.last_validated) {
            throw io_error(path, "record " + std::to_string(prefix - 1) +
                                     " no longer matches the validated prefix (file "
                                     "truncated and regrown, or replaced by an unrelated "
                                     "stream)");
        }
    }
    validate_records(path, h, tail.source, static_cast<std::size_t>(prefix), boundary);
    return tail;
}

NatbinTailCursor tail_cursor(const NatbinTail& tail) {
    NatbinTailCursor cursor;
    cursor.validated_records = tail.complete_records;
    if (!tail.events.empty()) cursor.last_validated = tail.events.back();
    return cursor;
}

StreamFormat detect_stream_format(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("cannot open '" + path + "'");
    char magic[sizeof(kNatbinMagic)] = {};
    is.read(magic, sizeof(magic));
    if (is.gcount() == sizeof(magic) && std::memcmp(magic, kNatbinMagic, sizeof(magic)) == 0) {
        return StreamFormat::natbin;
    }
    return StreamFormat::text;
}

LoadedStream load_stream_auto(const std::string& path, const CsvFormat& format) {
    return detect_stream_format(path) == StreamFormat::natbin ? open_natbin(path)
                                                              : load_link_stream(path, format);
}

}  // namespace natscale

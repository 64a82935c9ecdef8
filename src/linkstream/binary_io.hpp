// The .natbin compact binary link-stream format, and its mmap-able loader.
//
// Text loading a 10^8-event trace costs one parse + relabel pass and a
// transient spike of allocator churn every single run; natbin stores the
// already-canonical form of a LinkStream so reopening it is O(1) metadata
// plus (lazily paged) raw records:
//
//   offset  size  field
//   0       8     magic "NATBIN01"
//   8       4     version (u32 LE) = 1
//   12      4     flags (u32 LE): bit 0 directed, bit 1 has label table
//   16      8     num_nodes (u64 LE)
//   24      8     period_end T (i64 LE), > 0
//   32      8     num_events (u64 LE)
//   40      8     events_offset (u64 LE), 16-aligned, >= 64 + label bytes
//   48      8     label_bytes (u64 LE; 0 when bit 1 of flags is clear)
//   56      8     reserved, must be 0
//   64      ...   label table: num_nodes strings, each u32 LE length + bytes
//   ...     ...   zero padding up to events_offset
//   events_offset num_events * 16   event records
//
// One record is 16 bytes little-endian: u (u32), v (u32), t (i64) — exactly
// the in-memory Event layout on little-endian hosts, so the mmap loader
// reinterprets the mapping in place (zero copy).  Records are written in
// the canonical LinkStream order — (t, u, v) ascending, endpoints u < v for
// undirected streams — and the loader verifies that invariant (plus all
// bounds) in one sequential pass that releases pages behind itself, so
// opening a multi-GB trace never holds more than a sliding window resident.
//
// The header and label table are read through the one bounds-checked
// wire::Reader (util/wire.hpp); the event records keep their zero-copy
// memcpy path.  All malformed-input paths (wrong magic, short header,
// truncated records, label table overruns, order violations) throw
// io_error; nothing is ever read out of bounds (fuzzed in
// tests/test_binary_io.cpp under ASan).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linkstream/io.hpp"
#include "linkstream/link_stream.hpp"
#include "util/wire.hpp"

namespace natscale {

inline constexpr char kNatbinMagic[8] = {'N', 'A', 'T', 'B', 'I', 'N', '0', '1'};
inline constexpr std::size_t kNatbinHeaderBytes = 64;
inline constexpr std::size_t kNatbinRecordBytes = 16;

/// One event record: the natbin layout above, which session snapshots
/// (natscale/session) and ingest frames (service/protocol) share.
void put_record(wire::Writer& out, const Event& event);
Event get_record(wire::Reader& in);

/// Writes `stream` (with an optional label table) as .natbin.
/// Precondition: node_labels empty or >= num_nodes entries.
void save_natbin(const std::string& path, const LinkStream& stream,
                 const std::vector<std::string>& node_labels = {});

/// Maps the file and wraps it as an mmap-backed LinkStream: O(file) bytes of
/// address space, O(sliding window) resident.  One sequential pass validates
/// every record (bounds, canonical endpoints, (t, u, v) order) and counts
/// distinct timestamps; it releases pages behind itself.  On big-endian
/// hosts (where the records cannot be aliased in place) and for files that
/// cannot be mapped, the records are decoded into an owned copy instead.
/// Throws io_error on malformed files, std::runtime_error on unopenable or
/// empty-stream files.
LoadedStream open_natbin(const std::string& path);

/// A tail-mode view of a (possibly still growing) natbin file: the complete
/// records present right now, mmap-backed where possible.  Unlike the strict
/// loaders, tail mode tolerates a writer mid-append — a header event count
/// not yet patched (NatbinWriter writes it on finish()) and a trailing
/// partial record are both expected states of a live file, not corruption.
struct NatbinTail {
    NodeId num_nodes = 0;
    Time period_end = 0;
    bool directed = false;

    /// Complete records in the file, derived from the file size (the header
    /// count is advisory while a writer is active).
    std::uint64_t complete_records = 0;

    /// 0..15 bytes of a trailing partial record (a writer mid-append).
    std::size_t trailing_bytes = 0;

    /// num_events as declared by the header: 0 until the writer's finish()
    /// patches it.
    std::uint64_t header_num_events = 0;

    /// The complete records, in canonical (t, u, v) order.  Valid for the
    /// lifetime of this struct (whose `source` keeps the mapping / decoded
    /// copy alive); a later reopen of the grown file yields a fresh view.
    std::span<const Event> events;

    /// True once the writer has finished the file (header count patched and
    /// matching the bytes on disk): no more records will appear.
    bool finished() const noexcept {
        return header_num_events != 0 && header_num_events == complete_records &&
               trailing_bytes == 0;
    }

    /// Storage behind `events`: the mmap window on little-endian hosts, an
    /// owned decoded copy elsewhere.
    EventSource source;
};

/// Resume cursor for a polling tail reader: the validated record count plus
/// the last validated record itself.  Carrying the record (not only the
/// count) lets the next open detect a file that was truncated and regrown
/// past its previous size between polls — the count alone would silently
/// accept the impostor prefix and splice two unrelated streams together.
struct NatbinTailCursor {
    std::uint64_t validated_records = 0;
    Event last_validated{0, 0, -1};  ///< meaningful only when validated_records > 0
};

/// Opens a natbin file in tail mode: the one reopen of a polling reader.
/// The header is validated as usual, but the event-count cross-checks are
/// relaxed: the record region is whatever the file size says it is,
/// truncated to whole records.  Records [cursor.validated_records,
/// complete_records) are validated (bounds, canonical endpoints, (t, u, v)
/// order — including order against the cursor's last record), so a polling
/// reader that passes the cursor of its previous open (tail_cursor())
/// revalidates only what was appended; the default cursor validates every
/// record.  When the cursor has a validated prefix, the record at its
/// boundary must still equal cursor.last_validated — a mismatch means the
/// file on disk is not a continuation of what was already consumed
/// (truncated and regrown, or replaced wholesale).  Throws io_error on a
/// malformed header or records, on that mismatch, and when the file shrank
/// below the cursor's validated prefix.
NatbinTail open_natbin_tail(const std::string& path, const NatbinTailCursor& cursor = {});

/// The cursor describing everything `tail` has validated: pass it to
/// open_natbin_tail on the next poll.
NatbinTailCursor tail_cursor(const NatbinTail& tail);

/// Streaming writer for traces too large to materialize as a LinkStream
/// (format conversion pipelines, the out-of-core scale tests).  Events must
/// be appended in canonical order; finish() patches the event count into
/// the header.
class NatbinWriter {
public:
    /// Opens `path` for writing and emits the header + label table.
    /// Preconditions: period_end > 0; node_labels empty or >= num_nodes
    /// entries.
    NatbinWriter(const std::string& path, NodeId num_nodes, Time period_end, bool directed,
                 const std::vector<std::string>& node_labels = {});

    /// Destructor finishes the file if finish() was not called (errors are
    /// swallowed there — call finish() to observe them).
    ~NatbinWriter();
    NatbinWriter(const NatbinWriter&) = delete;
    NatbinWriter& operator=(const NatbinWriter&) = delete;

    /// Appends one event.  Throws io_error when the event is out of bounds,
    /// non-canonical (u >= v on an undirected stream), or out of (t, u, v)
    /// order with respect to the previous append.
    void append(const Event& event);

    /// Pushes every buffered record to the OS so a concurrent tail reader
    /// (open_natbin_tail) observes all events appended so far — the
    /// determinism hook of the `watch` smoke tests.  Does NOT patch the
    /// header count: that is finish()'s signal that the file is complete.
    /// Throws std::runtime_error on write failure.
    void flush();

    /// Flushes buffered records and patches num_events into the header.
    /// Throws std::runtime_error on write failure.  Idempotent.
    void finish();

private:
    void flush_buffer();

    std::string path_;
    std::ofstream os_;
    NodeId num_nodes_ = 0;
    Time period_end_ = 0;
    bool directed_ = false;
    bool finished_ = false;
    std::uint64_t count_ = 0;
    Event prev_{};
    std::vector<Event> buffer_;
};

/// Supported on-disk stream encodings.
enum class StreamFormat { text, natbin };

/// Sniffs the first bytes of `path` for the natbin magic; anything else is
/// text.  Throws std::runtime_error when the file cannot be opened.
StreamFormat detect_stream_format(const std::string& path);

/// Loads either format: natbin through the mmap-backed open_natbin, text
/// through load_link_stream.  `format` applies to text only (a natbin file
/// already fixes directedness, node universe and period).  The one place
/// that sniffs for the natbin magic before loading.
LoadedStream load_stream_auto(const std::string& path, const CsvFormat& format = {});

}  // namespace natscale

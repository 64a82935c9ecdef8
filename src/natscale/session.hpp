// StreamSession: the ingest-and-query surface over a growing stream.
//
// A consumer that receives events one by one — the natscaled daemon,
// embedders of the library — needs the same composition: a StreamIngestor
// validating and reordering appended events into the canonical sealed
// prefix + provisional tail, and an OnlineSweepEngine maintaining the
// occupancy statistics of a fixed Delta grid over it.  (`find_time_scale
// watch` reads a natbin file that is already canonical, so it drives an
// OnlineSweepEngine and its checkpoint file directly; see run_watch in
// examples/find_time_scale.cpp.)
// StreamSession owns that pair and keeps their contracts straight (the
// engine is always sync()ed against the ingestor's finalized prefix, never
// the provisional tail, so both sealed-only and full refreshes satisfy the
// engine's extension contract).  Reports are bit-identical to a cold batch
// DeltaSweepEngine run over the same events and grid — the repo's
// signature invariant, extended to this facade in tests/test_session.cpp.
//
// Sessions are snapshot-serializable: serialize() captures the complete
// state (ingest options, every ingested event, counters, and the engine's
// frozen checkpoint) in one versioned, checksummed buffer, and restore()
// rebuilds a session whose subsequent answers are bit-identical to one
// that never stopped.  This is what makes daemon restarts and client
// resumes exact rather than approximate.
//
// Snapshot format (little-endian, "NATSSES1"):
//   offset  size  field
//   0       8     magic "NATSSES1"
//   8       4     version (u32) = 1
//   12      4     flags (u32): bit 0 directed, bit 1 closed,
//                 bit 2 duplicates=drop, bit 3 late=reject
//   16      8     num_nodes (u64)
//   24      8     period_end (i64)
//   32      8     reorder_horizon (i64)
//   40      32    counters: accepted, reordered, duplicates_dropped,
//                 late_dropped (u64 each)
//   72      8     event count (u64), then events (u u32, v u32, t i64)
//   ...     8     engine checkpoint byte length (u64), then the embedded
//                 online/checkpoint blob (self-checksummed, carries the
//                 grid, metric, histogram resolution and frozen state)
//   end-8   8     FNV-1a 64 checksum of everything before it
//
// The envelope (magic, version, checksum) is util/wire.hpp's seal /
// unseal, the events are linkstream/binary_io's 16-byte records, and the
// payload is read through the one bounds-checked wire::Reader.  All counts
// are validated against the buffer size before allocation; a truncated or
// corrupted snapshot throws io_error and never yields a half-restored
// session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "natscale/sweep_config.hpp"
#include "online/incremental_sweep.hpp"
#include "online/stream_ingestor.hpp"
#include "stats/histogram01.hpp"
#include "util/types.hpp"

namespace natscale {

struct SessionOptions {
    /// Selection and execution knobs.  The online engine reads `metric`,
    /// `histogram_bins`, `shannon_slots` and `num_threads`; the grid-search
    /// knobs (refine_*) do not apply to a fixed-grid session and are
    /// ignored.  `coarse_points` sizes the default grid below.
    SweepConfig config;

    /// Aggregation periods to maintain.  Empty = the batch search's coarse
    /// grid, geometric_delta_grid(1, ingest.period_end, config.coarse_points)
    /// — which requires a bounded period of study (ingest.period_end > 0).
    std::vector<Time> grid;

    /// Ingestion boundary: reorder horizon, duplicate/late policies, period
    /// of study.
    IngestorOptions ingest;
};

class StreamSession {
public:
    /// Preconditions: num_nodes >= 2; a non-empty grid, or a positive
    /// ingest.period_end to derive one from.
    StreamSession(NodeId num_nodes, bool directed, SessionOptions options);

    // --- ingest ------------------------------------------------------------
    /// Same contracts as StreamIngestor::append / close.
    bool append(const Event& event) { return ingestor_.append(event); }
    void append(std::span<const Event> events) { ingestor_.append(events); }
    void close() { ingestor_.close(); }

    // --- introspection -----------------------------------------------------
    NodeId num_nodes() const noexcept { return ingestor_.num_nodes(); }
    bool directed() const noexcept { return ingestor_.directed(); }
    bool closed() const noexcept { return ingestor_.closed(); }
    Time watermark() const noexcept { return ingestor_.watermark(); }
    std::uint64_t sealed_events() const noexcept { return ingestor_.finalized().size(); }
    const IngestorCounters& counters() const noexcept { return ingestor_.counters(); }
    std::span<const Time> grid() const noexcept { return engine_.grid(); }
    UniformityMetric metric() const noexcept { return engine_.options().metric; }
    const SessionOptions& options() const noexcept { return options_; }

    /// Re-binds the sync/refresh fan-out width (runtime choice, not state).
    void set_num_threads(std::size_t num_threads) { engine_.set_num_threads(num_threads); }

    // --- queries -----------------------------------------------------------
    /// The current saturation report over the maintained grid.  With
    /// `sealed_only` the answer covers exactly the sealed prefix — final,
    /// replay-invariant, and bit-identical to a cold batch sweep of those
    /// events; otherwise it also covers the provisional reorder-buffer tail
    /// (exact for the events seen, but a late arrival may still change it).
    /// Folds newly sealed windows first (amortized: each event is folded
    /// once per period over the session's lifetime).  When `histograms_out`
    /// is non-null it receives the per-period occupancy histograms, aligned
    /// with grid().
    OnlineReport report(bool sealed_only = false,
                        std::vector<Histogram01>* histograms_out = nullptr);

    /// Occupancy histogram of one maintained period.  Preconditions: delta
    /// is a grid() member.
    Histogram01 histogram_at(Time delta, bool sealed_only = false);

    // --- snapshots ---------------------------------------------------------
    /// Serializes the complete session state (format above).  const in
    /// effect: folds sealed windows first, which never changes any answer.
    std::vector<std::byte> serialize();

    /// Rebuilds a session from a snapshot.  `context` names the source in
    /// error messages.  Subsequent appends and reports are bit-identical to
    /// the uninterrupted session's.  Thread count resets to the snapshot
    /// session's configured value; override with set_num_threads.
    static StreamSession restore(std::span<const std::byte> bytes,
                                 const std::string& context);

private:
    StreamSession(SessionOptions options, StreamIngestor ingestor, OnlineSweepEngine engine)
        : options_(std::move(options)),
          ingestor_(std::move(ingestor)),
          engine_(std::move(engine)) {}

    /// Folds newly sealed windows (engine sync against the finalized
    /// prefix).  Every query path calls this first.
    void sync();

    SessionOptions options_;
    StreamIngestor ingestor_;
    OnlineSweepEngine engine_;
};

}  // namespace natscale

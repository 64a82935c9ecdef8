#include "natscale/session.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/delta_grid.hpp"
#include "linkstream/binary_io.hpp"
#include "linkstream/io.hpp"
#include "online/checkpoint.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace natscale {

namespace {

constexpr std::uint32_t kFlagDirected = 1u << 0;
constexpr std::uint32_t kFlagClosed = 1u << 1;
constexpr std::uint32_t kFlagDropDuplicates = 1u << 2;
constexpr std::uint32_t kFlagRejectLate = 1u << 3;
constexpr std::uint32_t kKnownFlags =
    kFlagDirected | kFlagClosed | kFlagDropDuplicates | kFlagRejectLate;
constexpr std::size_t kFixedHeaderBytes = 72;
constexpr wire::Envelope kSessionFormat{"NATSSES1", 1, "session snapshot",
                                        kFixedHeaderBytes + 8};

OnlineSweepOptions engine_options_of(const SessionOptions& options,
                                     std::vector<Time> grid) {
    OnlineSweepOptions engine;
    engine.grid = std::move(grid);
    engine.histogram_bins = options.config.histogram_bins;
    engine.shannon_slots = options.config.shannon_slots;
    engine.metric = options.config.metric;
    engine.num_threads = options.config.num_threads;
    return engine;
}

std::vector<Time> resolve_grid(const SessionOptions& options) {
    if (!options.grid.empty()) return options.grid;
    // An empty grid needs a bounded period of study to derive the default
    // coarse grid from.
    NATSCALE_EXPECTS(options.ingest.period_end > 0);
    return geometric_delta_grid(1, options.ingest.period_end,
                                options.config.coarse_points);
}

}  // namespace

StreamSession::StreamSession(NodeId num_nodes, bool directed, SessionOptions options)
    : options_(std::move(options)),
      ingestor_(num_nodes, directed, options_.ingest),
      engine_(num_nodes, directed, engine_options_of(options_, resolve_grid(options_))) {}

void StreamSession::sync() {
    engine_.sync(ingestor_.finalized(), ingestor_.watermark());
}

OnlineReport StreamSession::report(bool sealed_only,
                                   std::vector<Histogram01>* histograms_out) {
    sync();
    if (sealed_only) return engine_.refresh(ingestor_.finalized(), histograms_out);
    const std::vector<Event> events = ingestor_.snapshot_events();
    return engine_.refresh(events, histograms_out);
}

Histogram01 StreamSession::histogram_at(Time delta, bool sealed_only) {
    const std::span<const Time> grid = engine_.grid();
    const auto at = std::find(grid.begin(), grid.end(), delta);
    NATSCALE_EXPECTS(at != grid.end());  // delta must be a maintained grid period
    std::vector<Histogram01> histograms;
    report(sealed_only, &histograms);
    return std::move(histograms[static_cast<std::size_t>(at - grid.begin())]);
}

std::vector<std::byte> StreamSession::serialize() {
    sync();  // fold sealed windows so the embedded checkpoint is current
    wire::Writer out(kSessionFormat);
    std::uint32_t flags = 0;
    if (ingestor_.directed()) flags |= kFlagDirected;
    if (ingestor_.closed()) flags |= kFlagClosed;
    if (options_.ingest.duplicates == DuplicatePolicy::drop) flags |= kFlagDropDuplicates;
    if (options_.ingest.late == LatePolicy::reject) flags |= kFlagRejectLate;
    out.u32(flags);
    out.u64(ingestor_.num_nodes());
    out.i64(options_.ingest.period_end);
    out.i64(options_.ingest.reorder_horizon);
    const IngestorCounters& counters = ingestor_.counters();
    out.u64(counters.accepted);
    out.u64(counters.reordered);
    out.u64(counters.duplicates_dropped);
    out.u64(counters.late_dropped);
    const std::vector<Event> events = ingestor_.snapshot_events();
    out.u64(events.size());
    for (const Event& event : events) put_record(out, event);
    const std::vector<std::byte> checkpoint = serialize_checkpoint(engine_);
    out.u64(checkpoint.size());
    out.raw(checkpoint.data(), checkpoint.size());
    return wire::seal(out);
}

StreamSession StreamSession::restore(std::span<const std::byte> bytes,
                                     const std::string& context) {
    wire::Reader in = wire::unseal(bytes, kSessionFormat, context, throw_io_error);
    const std::uint32_t flags = in.u32();
    if ((flags & ~kKnownFlags) != 0) in.fail("unknown session snapshot flags");
    const std::uint64_t nodes = in.u64();
    if (nodes < 2 || nodes > std::numeric_limits<NodeId>::max()) {
        in.fail("bad session snapshot node count");
    }

    SessionOptions options;
    options.ingest.period_end = in.i64();
    options.ingest.reorder_horizon = in.i64();
    if (options.ingest.period_end < 0 || options.ingest.reorder_horizon < 0) {
        in.fail("bad session snapshot ingest options");
    }
    options.ingest.duplicates = (flags & kFlagDropDuplicates) != 0
                                    ? DuplicatePolicy::drop
                                    : DuplicatePolicy::keep;
    options.ingest.late =
        (flags & kFlagRejectLate) != 0 ? LatePolicy::reject : LatePolicy::drop;

    IngestorCounters counters;
    counters.accepted = in.u64();
    counters.reordered = in.u64();
    counters.duplicates_dropped = in.u64();
    counters.late_dropped = in.u64();

    const std::uint64_t event_count = in.u64();
    if (counters.accepted < event_count) in.fail("session snapshot counters disagree with events");
    in.require_items(event_count, kNatbinRecordBytes);
    std::vector<Event> events;
    events.reserve(static_cast<std::size_t>(event_count));
    for (std::uint64_t i = 0; i < event_count; ++i) {
        const Event event = get_record(in);
        if (!events.empty() && event < events.back()) {
            in.fail("session snapshot events out of canonical order");
        }
        events.push_back(event);
    }

    const std::uint64_t checkpoint_bytes = in.u64();
    in.require_items(checkpoint_bytes, 1);
    const std::byte* checkpoint = in.take(static_cast<std::size_t>(checkpoint_bytes));
    in.done();

    OnlineSweepEngine engine = restore_checkpoint(
        std::span<const std::byte>(checkpoint, static_cast<std::size_t>(checkpoint_bytes)),
        context);
    if (engine.num_nodes() != nodes ||
        engine.directed() != ((flags & kFlagDirected) != 0)) {
        in.fail("session snapshot engine does not match the stream");
    }
    options.grid.assign(engine.grid().begin(), engine.grid().end());
    options.config.metric = engine.options().metric;
    options.config.histogram_bins = engine.options().histogram_bins;
    options.config.shannon_slots = engine.options().shannon_slots;

    // Replaying the canonical snapshot through a fresh ingestor reproduces
    // finalized/buffer/watermark exactly (the snapshot is sorted, so no
    // event is ever late on replay); the counters are then restored
    // explicitly since drops are absent from the snapshot.
    StreamIngestor ingestor(static_cast<NodeId>(nodes), (flags & kFlagDirected) != 0,
                            options.ingest);
    try {
        ingestor.append(events);
        if ((flags & kFlagClosed) != 0) ingestor.close();
    } catch (const contract_error&) {
        in.fail("session snapshot events violate the stream contract");
    }
    ingestor.counters_ = counters;

    if (engine.synced_events() > ingestor.finalized().size()) {
        in.fail("session snapshot engine is ahead of the sealed prefix");
    }
    return StreamSession(std::move(options), std::move(ingestor), std::move(engine));
}

}  // namespace natscale

#include "online/checkpoint.hpp"

#include <array>
#include <limits>
#include <string>
#include <vector>

#include "linkstream/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace natscale {

namespace {

constexpr std::uint32_t kFlagDirected = 1u << 0;
constexpr std::size_t kFixedHeaderBytes = 72;
constexpr std::size_t kEntryBytes = 16;  // v u32, hops u32, arr i64
constexpr wire::Envelope kCheckpointFormat{"NATSCKP1", 1, "checkpoint",
                                           kFixedHeaderBytes + 8};

using Writer = wire::Writer;
using Reader = wire::Reader;

void put_exact_sum(Writer& out, const ExactSum& sum) {
    for (const std::uint64_t limb : sum.limbs()) out.u64(limb);
}

ExactSum get_exact_sum(Reader& in) {
    std::array<std::uint64_t, ExactSum::kLimbs> limbs;
    for (std::uint64_t& limb : limbs) limb = in.u64();
    return ExactSum::from_limbs(limbs);
}

}  // namespace

std::vector<std::byte> serialize_checkpoint(const OnlineSweepEngine& engine) {
    Writer out(kCheckpointFormat);
    out.u32(engine.directed_ ? kFlagDirected : 0u);
    out.u64(engine.num_nodes_);
    out.i64(engine.watermark_);
    out.u64(engine.synced_events_);
    out.u32(static_cast<std::uint32_t>(engine.options_.metric));
    out.u32(0);  // reserved
    out.u64(engine.options_.histogram_bins);
    out.u64(engine.options_.shannon_slots);
    out.u64(engine.grid_.size());
    for (const Time delta : engine.grid_) out.i64(delta);

    for (const auto& period : engine.periods_) {
        out.u64(period.folded);
        out.u64(period.histogram.total());
        for (const std::uint64_t count : period.histogram.counts()) out.u64(count);
        put_exact_sum(out, period.histogram.moment_sum());
        put_exact_sum(out, period.histogram.moment_sum_sq());
        for (const auto& row : period.sweep.state_rows()) {
            out.u64(row.size());
            for (const auto& entry : row) {
                out.u32(entry.v);
                out.u32(static_cast<std::uint32_t>(entry.hops));
                out.i64(entry.arr);
            }
        }
    }
    return wire::seal(out);
}

void save_checkpoint(const std::string& path, const OnlineSweepEngine& engine) {
    obs::Span span("online.checkpoint_save");
    static obs::Counter& saves = obs::counter("online.checkpoint_saves");
    saves.add();
    // Durable atomic replacement: a crash (or power cut) during the save
    // leaves the previous checkpoint intact, never a torn file.
    atomic_write_file(path, serialize_checkpoint(engine));
}

OnlineSweepEngine restore_checkpoint(std::span<const std::byte> bytes,
                                     const std::string& context) {
    obs::Span span("online.checkpoint_restore");
    if (span.active()) {
        span.attr("bytes", static_cast<std::uint64_t>(bytes.size()));
    }
    static obs::Counter& restores = obs::counter("online.checkpoint_restores");
    restores.add();
    Reader in = wire::unseal(bytes, kCheckpointFormat, context, throw_io_error);
    const std::uint32_t flags = in.u32();
    if ((flags & ~kFlagDirected) != 0) in.fail("unknown checkpoint flags");

    OnlineSweepEngine engine;
    engine.directed_ = (flags & kFlagDirected) != 0;
    const std::uint64_t nodes = in.u64();
    if (nodes < 2 || nodes > std::numeric_limits<NodeId>::max()) {
        in.fail("bad checkpoint node count");
    }
    engine.num_nodes_ = static_cast<NodeId>(nodes);
    engine.watermark_ = in.i64();
    engine.synced_events_ = in.u64();
    const std::uint32_t metric = in.u32();
    if (metric > static_cast<std::uint32_t>(UniformityMetric::cre)) {
        in.fail("bad checkpoint metric");
    }
    engine.options_.metric = static_cast<UniformityMetric>(metric);
    if (in.u32() != 0) in.fail("nonzero reserved checkpoint field");
    const std::uint64_t bins = in.u64();
    if (bins == 0) in.fail("bad checkpoint histogram resolution");
    in.require_items(bins, 8);  // every period stores `bins` counts
    engine.options_.histogram_bins = static_cast<std::size_t>(bins);
    const std::uint64_t slots = in.u64();
    if (slots == 0 || slots > kMaxShannonSlots) in.fail("bad checkpoint shannon slot count");
    engine.options_.shannon_slots = static_cast<std::size_t>(slots);

    const std::uint64_t grid_count = in.u64();
    if (grid_count == 0) in.fail("empty checkpoint grid");
    in.require_items(grid_count, 8);
    engine.grid_.reserve(static_cast<std::size_t>(grid_count));
    for (std::uint64_t g = 0; g < grid_count; ++g) {
        const Time delta = in.i64();
        if (delta < 1 || (!engine.grid_.empty() && delta <= engine.grid_.back())) {
            in.fail("checkpoint grid not strictly increasing positive");
        }
        engine.grid_.push_back(delta);
    }
    engine.options_.grid = engine.grid_;

    const ReachabilityBackend backend =
        OnlineSweepEngine::initial_backend(engine.num_nodes_, engine.grid_.size());
    engine.periods_.resize(engine.grid_.size());
    for (std::size_t g = 0; g < engine.grid_.size(); ++g) {
        auto& period = engine.periods_[g];
        period.delta = engine.grid_[g];
        period.folded = in.u64();
        if (period.folded > engine.synced_events_) {
            in.fail("checkpoint fold position beyond synced events");
        }
        const std::uint64_t total = in.u64();
        in.require_items(bins, 8);
        std::vector<std::uint64_t> counts(static_cast<std::size_t>(bins));
        for (std::uint64_t& count : counts) count = in.u64();
        const ExactSum sum = get_exact_sum(in);
        const ExactSum sum_sq = get_exact_sum(in);
        if (const char* why = Histogram01::invalid_state(counts, total, sum, sum_sq)) {
            in.fail(std::string("checkpoint ") + why);
        }
        period.histogram = Histogram01::restore(std::move(counts), total, sum, sum_sq);

        // Every row costs at least its 8-byte count in the remaining
        // payload, so a crafted num_nodes can never drive a huge resize
        // (the checksum is no defense — it is trivially recomputable).
        in.require_items(engine.num_nodes_, 8);
        std::vector<ReachRow> rows(engine.num_nodes_);
        for (auto& row : rows) {
            const std::uint64_t entries = in.u64();
            in.require_items(entries, kEntryBytes);
            row.resize(static_cast<std::size_t>(entries));
            for (std::size_t i = 0; i < row.size(); ++i) {
                auto& entry = row[i];
                entry.v = in.u32();
                entry.hops = static_cast<Hops>(in.u32());
                entry.arr = in.i64();
                // Arrivals are reversed labels -k with k >= 1; arr >= 0
                // would pack as (or past) the dense unreachable sentinel.
                if (entry.v >= engine.num_nodes_ || entry.hops < 1 || entry.arr >= 0 ||
                    (i > 0 && row[i - 1].v >= entry.v)) {
                    in.fail("malformed checkpoint sweep row");
                }
            }
        }
        period.sweep.restore_state(engine.num_nodes_, std::move(rows), backend);
    }
    in.done();
    engine.count_period_backends();
    return engine;
}

OnlineSweepEngine load_checkpoint(const std::string& path) {
    return restore_checkpoint(read_file(path), path);
}

}  // namespace natscale

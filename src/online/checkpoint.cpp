#include "online/checkpoint.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "linkstream/io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/wire.hpp"

namespace natscale {

namespace {

constexpr char kCheckpointMagic[8] = {'N', 'A', 'T', 'S', 'C', 'K', 'P', '1'};
constexpr std::uint32_t kCheckpointVersion = 1;
constexpr std::uint32_t kFlagDirected = 1u << 0;
constexpr std::size_t kFixedHeaderBytes = 72;
constexpr std::size_t kEntryBytes = 16;  // v u32, hops u32, arr i64

using wire::fnv1a64;
using Writer = wire::Writer;

/// Bounds-checked forward reader over the checkpoint payload.
class Reader {
public:
    Reader(const std::string& path, const std::byte* data, std::size_t size)
        : path_(&path), data_(data), size_(size) {}

    std::uint32_t u32() { return wire::get_u32(take(4)); }
    std::uint64_t u64() { return wire::get_u64(take(8)); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    const std::byte* take(std::size_t count) {
        require(count);
        const std::byte* at = data_ + pos_;
        pos_ += count;
        return at;
    }

    /// Remaining payload can hold `count` items of `item_bytes` each —
    /// checked BEFORE any allocation sized from an untrusted count.
    void require_items(std::uint64_t count, std::size_t item_bytes) const {
        if (count > (size_ - pos_) / item_bytes) {
            throw io_error(*path_, "truncated checkpoint payload");
        }
    }

    std::size_t position() const { return pos_; }

private:
    void require(std::size_t count) const {
        if (count > size_ - pos_) throw io_error(*path_, "truncated checkpoint payload");
    }

    const std::string* path_;
    const std::byte* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

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
    Writer out;
    out.raw(kCheckpointMagic, sizeof(kCheckpointMagic));
    out.u32(kCheckpointVersion);
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
    out.u64(fnv1a64(out.bytes().data(), out.bytes().size()));
    return std::move(out.bytes());
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
    const std::string& path = context;  // io_error labels errors by source
    const std::size_t size = bytes.size();
    if (size < kFixedHeaderBytes + 8) throw io_error(path, "truncated checkpoint header");

    const std::uint64_t declared = wire::get_u64(bytes.data() + size - 8);
    if (declared != fnv1a64(bytes.data(), size - 8)) {
        throw io_error(path, "checkpoint checksum mismatch");
    }

    Reader in(path, bytes.data(), size - 8);
    if (std::memcmp(in.take(sizeof(kCheckpointMagic)), kCheckpointMagic,
                    sizeof(kCheckpointMagic)) != 0) {
        throw io_error(path, "not a natscale checkpoint (bad magic)");
    }
    const std::uint32_t version = in.u32();
    if (version != kCheckpointVersion) {
        throw io_error(path, "unsupported checkpoint version " + std::to_string(version));
    }
    const std::uint32_t flags = in.u32();
    if ((flags & ~kFlagDirected) != 0) throw io_error(path, "unknown checkpoint flags");

    OnlineSweepEngine engine;
    engine.directed_ = (flags & kFlagDirected) != 0;
    const std::uint64_t nodes = in.u64();
    if (nodes < 2 || nodes > std::numeric_limits<NodeId>::max()) {
        throw io_error(path, "bad checkpoint node count");
    }
    engine.num_nodes_ = static_cast<NodeId>(nodes);
    engine.watermark_ = in.i64();
    engine.synced_events_ = in.u64();
    const std::uint32_t metric = in.u32();
    if (metric > static_cast<std::uint32_t>(UniformityMetric::cre)) {
        throw io_error(path, "bad checkpoint metric");
    }
    engine.options_.metric = static_cast<UniformityMetric>(metric);
    if (in.u32() != 0) throw io_error(path, "nonzero reserved checkpoint field");
    const std::uint64_t bins = in.u64();
    if (bins == 0) throw io_error(path, "bad checkpoint histogram resolution");
    in.require_items(bins, 8);  // every period stores `bins` counts
    engine.options_.histogram_bins = static_cast<std::size_t>(bins);
    engine.options_.shannon_slots = static_cast<std::size_t>(in.u64());
    if (engine.options_.shannon_slots == 0) {
        throw io_error(path, "bad checkpoint shannon slot count");
    }

    const std::uint64_t grid_count = in.u64();
    if (grid_count == 0) throw io_error(path, "empty checkpoint grid");
    in.require_items(grid_count, 8);
    engine.grid_.reserve(static_cast<std::size_t>(grid_count));
    for (std::uint64_t g = 0; g < grid_count; ++g) {
        const Time delta = in.i64();
        if (delta < 1 || (!engine.grid_.empty() && delta <= engine.grid_.back())) {
            throw io_error(path, "checkpoint grid not strictly increasing positive");
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
            throw io_error(path, "checkpoint fold position beyond synced events");
        }
        const std::uint64_t total = in.u64();
        in.require_items(bins, 8);
        std::vector<std::uint64_t> counts(static_cast<std::size_t>(bins));
        for (std::uint64_t& count : counts) count = in.u64();
        const ExactSum sum = get_exact_sum(in);
        const ExactSum sum_sq = get_exact_sum(in);
        std::uint64_t check = 0;
        for (const std::uint64_t count : counts) check += count;
        if (check != total) throw io_error(path, "checkpoint histogram counts do not sum");
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
                    throw io_error(path, "malformed checkpoint sweep row");
                }
            }
        }
        period.sweep.restore_state(engine.num_nodes_, std::move(rows), backend);
    }
    if (in.position() != size - 8) {
        throw io_error(path, "trailing bytes in checkpoint");
    }
    engine.count_period_backends();
    return engine;
}

OnlineSweepEngine load_checkpoint(const std::string& path) {
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) throw std::runtime_error("cannot open '" + path + "'");
    const auto size = static_cast<std::size_t>(is.tellg());
    std::vector<std::byte> bytes(size);
    is.seekg(0);
    is.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(size));
    if (!is) throw std::runtime_error("cannot read '" + path + "'");
    return restore_checkpoint(bytes, path);
}

}  // namespace natscale

// The online subsystem's signature invariant: for ANY append/refresh
// schedule, the incrementally maintained results — histogram bins AND exact
// moments, every uniformity metric, the trip count, and the saturation-scale
// argmax — are BIT-identical to a cold DeltaSweepEngine batch run over the
// same event prefix, for every thread count of the cold side and of the
// online side.  Plus the ingestor's
// ordering/duplicate/late semantics and the checkpoint round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "linkstream/aggregation.hpp"
#include "linkstream/io.hpp"
#include "linkstream/link_stream.hpp"
#include "online/checkpoint.hpp"
#include "online/incremental_sweep.hpp"
#include "online/stream_ingestor.hpp"
#include "stats/exact_sum.hpp"
#include "stats/uniformity.hpp"
#include "temporal/minimal_trip.hpp"
#include "temporal/reachability_backend.hpp"
#include "temporal/sparse_reachability.hpp"
#include "testing/histograms.hpp"
#include "testing/temp_files.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

namespace natscale {
namespace {

using testing::expect_identical_histograms;

/// Random (t, u, v)-style event soup: bursty, duplicate-heavy, with both
/// sparse and busy instants — appended UNSORTED within a small jitter so
/// the ingestor's reorder buffer is exercised.
std::vector<Event> random_events(std::uint64_t seed, NodeId n, Time period, std::size_t count,
                                 bool directed) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(count);
    Time t = 0;
    while (events.size() < count) {
        // Bursts keep several events per instant; jumps create empty gaps.
        t += rng.bernoulli(0.3) ? 0 : rng.uniform_int(1, period / 50 + 1);
        if (t >= period) t = rng.uniform_int(0, period - 1);
        const std::size_t burst = 1 + rng.uniform_index(4);
        for (std::size_t b = 0; b < burst && events.size() < count; ++b) {
            auto u = static_cast<NodeId>(rng.uniform_index(n));
            auto v = static_cast<NodeId>(rng.uniform_index(n));
            if (u == v) v = (v + 1) % n;
            if (!directed && u > v) std::swap(u, v);
            events.push_back({u, v, t});
            if (rng.bernoulli(0.1)) events.push_back({u, v, t});  // exact duplicate
        }
    }
    return events;
}

void expect_identical_points(const DeltaPoint& a, const DeltaPoint& b) {
    EXPECT_EQ(a.delta, b.delta);
    EXPECT_EQ(a.num_trips, b.num_trips);
    EXPECT_EQ(a.occupancy_mean, b.occupancy_mean);
    EXPECT_EQ(a.scores.mk_proximity, b.scores.mk_proximity);
    EXPECT_EQ(a.scores.std_deviation, b.scores.std_deviation);
    EXPECT_EQ(a.scores.variation_coefficient, b.scores.variation_coefficient);
    EXPECT_EQ(a.scores.shannon_entropy, b.scores.shannon_entropy);
    EXPECT_EQ(a.scores.cre, b.scores.cre);
}

/// Cold reference over `events` at a given thread count; returns points +
/// histograms for the grid.
std::vector<DeltaPoint> cold_sweep(const std::vector<Event>& events, NodeId n, Time period,
                                   bool directed, const std::vector<Time>& grid,
                                   std::size_t threads, std::vector<Histogram01>* histograms) {
    const LinkStream stream(events, n, period, directed);
    DeltaSweepOptions options;
    options.num_threads = threads;
    DeltaSweepEngine engine(stream, options);
    return engine.evaluate(grid, histograms);
}

/// The cold argmax (core/saturation tie rule) over delta-sorted points.
std::size_t cold_best(const std::vector<DeltaPoint>& points, UniformityMetric metric) {
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double score = score_of(points[i].scores, metric);
        if (score > best_score) {
            best_score = score;
            best = i;
        }
    }
    return best;
}

struct Scenario {
    std::uint64_t seed;
    NodeId n;
    Time period;
    std::size_t count;
    bool directed;
    ReachabilityBackend backend;  // the kernel every online period resolves to
};

const Scenario kScenarios[] = {
    {1, 24, 4000, 600, false, ReachabilityBackend::dense},
    {2, 12, 900, 400, true, ReachabilityBackend::dense},
    {3, 48, 20000, 900, false, ReachabilityBackend::dense},
    // kSparseMinNodes: the online rule sends it to the sparse kernel.
    {4, 2048, 20000, 900, false, ReachabilityBackend::sparse},
};

void expect_backend(const OnlineSweepEngine& engine, ReachabilityBackend backend) {
    for (std::size_t g = 0; g < engine.grid().size(); ++g) {
        EXPECT_EQ(engine.period_backend(g), backend) << "period " << g;
    }
}

TEST(OnlineSweep, MatchesColdBatchAtEveryRefreshPoint) {
    for (const Scenario& sc : kScenarios) {
        const std::vector<Event> events =
            random_events(sc.seed, sc.n, sc.period, sc.count, sc.directed);
        const std::vector<Time> grid = geometric_delta_grid(1, sc.period, 10);

        Rng rng(sc.seed * 77 + 5);
        for (const std::size_t online_threads : {std::size_t{1}, std::size_t{4}}) {
            OnlineSweepOptions options;
            options.grid = grid;
            options.num_threads = online_threads;
            OnlineSweepEngine online(sc.n, sc.directed, options);
            expect_backend(online, sc.backend);

            IngestorOptions ingest_options;
            ingest_options.reorder_horizon = sc.period / 20;
            ingest_options.period_end = sc.period;
            StreamIngestor ingestor(sc.n, sc.directed, ingest_options);

            // Feed in bursts with bounded shuffling (the ingestor re-sorts
            // within its horizon); refresh at random cut points.
            std::size_t fed = 0;
            std::vector<Event> to_feed = events;
            // Local, bounded shuffle: swap nearby events so reordering stays
            // within the horizon.
            for (std::size_t i = 1; i + 1 < to_feed.size(); ++i) {
                const std::size_t j = i + rng.uniform_index(2);
                if (j < to_feed.size() &&
                    to_feed[j].t - to_feed[i].t <= ingest_options.reorder_horizon &&
                    to_feed[i].t - to_feed[j].t <= ingest_options.reorder_horizon) {
                    std::swap(to_feed[i], to_feed[j]);
                }
            }
            int refreshes = 0;
            while (fed < to_feed.size()) {
                const std::size_t batch = 1 + rng.uniform_index(to_feed.size() / 4 + 1);
                for (std::size_t b = 0; b < batch && fed < to_feed.size(); ++b) {
                    ingestor.append(to_feed[fed++]);
                }
                if (fed >= to_feed.size()) ingestor.close();

                online.sync(ingestor.finalized(), ingestor.watermark());
                const std::vector<Event> covered = ingestor.snapshot_events();
                if (covered.empty()) continue;

                std::vector<Histogram01> online_hists;
                const OnlineReport report = online.refresh(covered, &online_hists);
                ++refreshes;

                // Cold reference across thread counts (the cold paths are
                // already proven identical to one another, but this pins
                // the online result against each independently).
                for (const std::size_t cold_threads : {std::size_t{1}, std::size_t{4}}) {
                    std::vector<Histogram01> cold_hists;
                    const std::vector<DeltaPoint> cold = cold_sweep(
                        covered, sc.n, sc.period, sc.directed, grid, cold_threads, &cold_hists);
                    ASSERT_EQ(cold.size(), report.points.size());
                    for (std::size_t g = 0; g < cold.size(); ++g) {
                        expect_identical_points(report.points[g], cold[g]);
                        expect_identical_histograms(online_hists[g], cold_hists[g]);
                    }
                    EXPECT_EQ(report.best_index, cold_best(cold, options.metric));
                    EXPECT_EQ(report.gamma, cold[cold_best(cold, options.metric)].delta);
                }
            }
            EXPECT_GE(refreshes, 2) << "scenario did not exercise multiple refreshes";
        }
    }
}

TEST(OnlineSweep, RefreshIsRepeatableAndSyncOrderIrrelevant) {
    const Scenario sc = kScenarios[0];
    const std::vector<Event> events =
        random_events(sc.seed, sc.n, sc.period, sc.count, sc.directed);
    const std::vector<Time> grid = geometric_delta_grid(1, sc.period, 8);

    OnlineSweepOptions options;
    options.grid = grid;
    options.num_threads = 1;

    // Engine A: one sync at the end.  Engine B: sync after every quarter.
    OnlineSweepEngine a(sc.n, sc.directed, options);
    OnlineSweepEngine b(sc.n, sc.directed, options);
    const Time final_watermark = kInfiniteTime;  // closed stream
    for (int quarter = 1; quarter <= 4; ++quarter) {
        const std::size_t upto = events.size() * quarter / 4;
        // A valid watermark promises every event below it is already
        // present: the minimum timestamp still to come qualifies (and is
        // nondecreasing as the remainder shrinks).
        Time watermark = final_watermark;
        for (std::size_t i = upto; i < events.size(); ++i) {
            watermark = std::min(watermark, events[i].t);
        }
        std::vector<Event> sorted(events.begin(), events.begin() + upto);
        std::sort(sorted.begin(), sorted.end());
        // b folds incrementally (watermark only moves forward).
        if (watermark >= b.synced_watermark()) b.sync(sorted, watermark);
    }
    std::vector<Event> all = events;
    std::sort(all.begin(), all.end());
    a.sync(all, final_watermark);
    b.sync(all, final_watermark);

    std::vector<Histogram01> ha1, ha2, hb;
    const OnlineReport ra1 = a.refresh(all, &ha1);
    const OnlineReport ra2 = a.refresh(all, &ha2);  // repeatable
    const OnlineReport rb = b.refresh(all, &hb);
    ASSERT_EQ(ra1.points.size(), rb.points.size());
    for (std::size_t g = 0; g < ra1.points.size(); ++g) {
        expect_identical_points(ra1.points[g], ra2.points[g]);
        expect_identical_points(ra1.points[g], rb.points[g]);
        expect_identical_histograms(ha1[g], ha2[g]);
        expect_identical_histograms(ha1[g], hb[g]);
    }
    // Fully sealed: every event folded, so the refresh tail is empty.
    for (std::size_t g = 0; g < grid.size(); ++g) {
        EXPECT_EQ(a.folded_events(g), all.size());
    }
}

TEST(OnlineSweep, MatchesBatchSaturationSearchOnItsCoarseGrid) {
    // The watch tool's convergence contract: an online engine over the
    // batch search's coarse grid reports the exact gamma of
    // find_saturation_scale with refinement disabled.
    const Scenario sc = kScenarios[2];
    const std::vector<Event> events =
        random_events(sc.seed, sc.n, sc.period, sc.count, sc.directed);
    std::vector<Event> sorted = events;
    std::sort(sorted.begin(), sorted.end());
    const LinkStream stream(sorted, sc.n, sc.period, sc.directed);

    SweepConfig batch_options;
    batch_options.coarse_points = 16;
    batch_options.refine_rounds = 0;
    const SaturationResult batch = find_saturation_scale(stream, batch_options);

    OnlineSweepOptions options;
    options.grid = geometric_delta_grid(1, sc.period, 16);
    OnlineSweepEngine online(sc.n, sc.directed, options);
    online.sync(sorted, sc.period);
    const OnlineReport report = online.refresh(sorted);

    EXPECT_EQ(report.gamma, batch.gamma);
    ASSERT_EQ(report.points.size(), batch.curve.size());
    for (std::size_t g = 0; g < report.points.size(); ++g) {
        expect_identical_points(report.points[g], batch.curve[g]);
    }
}

TEST(OnlineSweep, RefreshAfterPartialSyncMatchesPerTripReference) {
    // The cold side of the tests above tallies trips exactly as the online
    // engine does.  Here the reference adds each trip of a direct
    // ReachabilityEngine scan on its own, over a grid whose Delta = 1
    // trips straddle the tally table's edge.
    const Scenario sc = kScenarios[2];
    std::vector<Event> sorted = random_events(sc.seed, sc.n, sc.period, sc.count, sc.directed);
    std::sort(sorted.begin(), sorted.end());
    const LinkStream stream(sorted, sc.n, sc.period, sc.directed);

    OnlineSweepOptions options;
    options.grid = {1, 30, 400};
    OnlineSweepEngine online(sc.n, sc.directed, options);
    // Half the stream frozen by sync, the other half swept as refresh tail.
    const std::size_t half = sorted.size() / 2;
    online.sync(std::span(sorted).first(half), sorted[half].t);
    std::vector<Histogram01> hists;
    online.refresh(sorted, &hists);

    bool table_trips = false;
    bool longer_trips = false;
    ASSERT_EQ(hists.size(), options.grid.size());
    for (std::size_t g = 0; g < options.grid.size(); ++g) {
        SCOPED_TRACE("delta=" + std::to_string(options.grid[g]));
        Histogram01 reference(options.histogram_bins);
        ReachabilityEngine engine;
        engine.scan_series(aggregate(stream, options.grid[g]), [&](const MinimalTrip& trip) {
            const bool in_table = series_duration(trip) <= OccupancyTally::kMaxTableDuration;
            (in_table ? table_trips : longer_trips) = true;
            reference.add(series_occupancy(trip));
        });
        expect_identical_histograms(hists[g], reference);
    }
    EXPECT_TRUE(table_trips);
    EXPECT_TRUE(longer_trips);
}

void expect_checkpoint_round_trip(const Scenario& sc) {
    SCOPED_TRACE("n=" + std::to_string(sc.n));
    const std::vector<Event> events =
        random_events(sc.seed + 9, sc.n, sc.period, sc.count, sc.directed);
    std::vector<Event> sorted = events;
    std::sort(sorted.begin(), sorted.end());
    const std::vector<Time> grid = geometric_delta_grid(1, sc.period, 8);

    OnlineSweepOptions options;
    options.grid = grid;
    options.metric = UniformityMetric::shannon_entropy;
    OnlineSweepEngine original(sc.n, sc.directed, options);
    expect_backend(original, sc.backend);

    // Sync half the stream, checkpoint, restore, then continue BOTH engines
    // with the rest: every later report must match bitwise.
    const std::size_t half = sorted.size() / 2;
    const Time half_watermark = sorted[half].t;
    original.sync(std::span(sorted).first(half), half_watermark);

    const std::string path = natscale::testing::temp_path("online_checkpoint.natsckp");
    save_checkpoint(path, original);
    OnlineSweepEngine restored = load_checkpoint(path);
    std::filesystem::remove(path);

    EXPECT_EQ(restored.num_nodes(), original.num_nodes());
    EXPECT_EQ(restored.directed(), original.directed());
    EXPECT_EQ(restored.synced_events(), original.synced_events());
    EXPECT_EQ(restored.synced_watermark(), original.synced_watermark());
    EXPECT_EQ(restored.options().metric, options.metric);
    ASSERT_EQ(std::vector<Time>(restored.grid().begin(), restored.grid().end()),
              std::vector<Time>(original.grid().begin(), original.grid().end()));
    expect_backend(restored, sc.backend);
    EXPECT_EQ(serialize_checkpoint(restored), serialize_checkpoint(original));

    original.sync(sorted, sc.period);
    restored.sync(sorted, sc.period);
    std::vector<Histogram01> h1, h2;
    const OnlineReport r1 = original.refresh(sorted, &h1);
    const OnlineReport r2 = restored.refresh(sorted, &h2);
    ASSERT_EQ(r1.points.size(), r2.points.size());
    for (std::size_t g = 0; g < r1.points.size(); ++g) {
        expect_identical_points(r1.points[g], r2.points[g]);
        expect_identical_histograms(h1[g], h2[g]);
        EXPECT_EQ(original.folded_events(g), restored.folded_events(g));
    }
    EXPECT_EQ(r1.gamma, r2.gamma);
}

TEST(OnlineSweep, CheckpointRoundTripContinuesBitIdentically) {
    expect_checkpoint_round_trip(kScenarios[0]);
    expect_checkpoint_round_trip(kScenarios[3]);
}

TEST(OnlineSweep, CheckpointRejectsCorruption) {
    const Scenario sc = kScenarios[0];
    std::vector<Event> sorted =
        random_events(sc.seed, sc.n, sc.period, 200, sc.directed);
    std::sort(sorted.begin(), sorted.end());
    OnlineSweepOptions options;
    options.grid = {1, 7, 100};
    OnlineSweepEngine engine(sc.n, sc.directed, options);
    engine.sync(sorted, sc.period);

    const std::string path = natscale::testing::temp_path("online_checkpoint_bad.natsckp");
    save_checkpoint(path, engine);
    // Flip one payload byte: the checksum must catch it.
    {
        std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(40);
        char byte = 0;
        f.seekg(40);
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(40);
        f.write(&byte, 1);
    }
    EXPECT_THROW(load_checkpoint(path), io_error);
    // Truncation at every 97th byte: never crashes, always throws.
    std::vector<char> bytes;
    {
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        bytes.resize(static_cast<std::size_t>(f.tellg()));
        f.seekg(0);
        f.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    for (std::size_t cut = 0; cut < bytes.size(); cut += 97) {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(), static_cast<std::streamsize>(cut));
        f.close();
        EXPECT_THROW(load_checkpoint(path), std::exception) << "cut=" << cut;
    }
    std::filesystem::remove(path);

    // A sweep row entry with a non-negative arrival, checksum recomputed.
    // Reversed labels are always <= -1; packed into the dense kernel, such
    // an entry would collide with the unreachable sentinel.
    std::vector<std::byte> image = serialize_checkpoint(engine);
    // First period: folded, total, bin counts and two moment sums, then the
    // rows; the first non-empty row's first entry is (v u32, hops u32, arr).
    std::size_t row_at = 72 + 8 * options.grid.size() + 16 + 8 * options.histogram_bins +
                         2 * 8 * ExactSum::kLimbs;
    while (wire::get_u64(image.data() + row_at) == 0) row_at += 8;
    const std::size_t arr_at = row_at + 8 + 8;
    ASSERT_LT(static_cast<std::int64_t>(wire::get_u64(image.data() + arr_at)), 0);
    EXPECT_NO_THROW(restore_checkpoint(image, "intact"));
    for (const std::int64_t arr : {std::int64_t{0}, std::int64_t{5}}) {
        wire::put_u64(image.data() + arr_at, static_cast<std::uint64_t>(arr));
        wire::put_u64(image.data() + image.size() - 8,
                      wire::fnv1a64(image.data(), image.size() - 8));
        try {
            restore_checkpoint(image, "corrupt");
            ADD_FAILURE() << "arr=" << arr << " restored";
        } catch (const io_error& error) {
            EXPECT_NE(std::string(error.what()).find("malformed checkpoint sweep row"),
                      std::string::npos)
                << error.what();
        }
    }
}

/// The checkpoint image of a small synced engine (3 nodes, 2 periods of 60
/// bins), with the offsets of period 0's bin counts and moment limbs.
struct SmallCheckpoint {
    std::vector<std::byte> image;
    std::size_t counts_at = 0;
    std::size_t moment_sum_at = 0;
    std::size_t moment_sum_sq_at = 0;
};

SmallCheckpoint small_checkpoint() {
    OnlineSweepOptions options;
    options.grid = {1, 5};
    options.histogram_bins = 60;
    OnlineSweepEngine engine(3, false, options);
    const std::vector<Event> events = {{0, 1, 0}, {1, 2, 2}, {0, 2, 4}, {0, 1, 7}};
    engine.sync(events, 10);
    SmallCheckpoint checkpoint;
    checkpoint.image = serialize_checkpoint(engine);
    // Fixed header, grid, then period 0's fold position and total.
    checkpoint.counts_at = 72 + 8 * options.grid.size() + 16;
    checkpoint.moment_sum_at = checkpoint.counts_at + 8 * options.histogram_bins;
    checkpoint.moment_sum_sq_at = checkpoint.moment_sum_at + 8 * ExactSum::kLimbs;
    EXPECT_GT(wire::get_u64(checkpoint.image.data() + checkpoint.counts_at - 8), 0u);
    return checkpoint;
}

/// Recomputes the image's checksum, as anyone crafting a file can, and
/// expects restore to refuse it with an io_error naming `check`.
void expect_refused(std::vector<std::byte> image, const std::string& check) {
    wire::put_u64(image.data() + image.size() - 8,
                  wire::fnv1a64(image.data(), image.size() - 8));
    try {
        restore_checkpoint(image, "crafted");
        ADD_FAILURE() << "restored; expected a refusal naming '" << check << "'";
    } catch (const io_error& error) {
        EXPECT_NE(std::string(error.what()).find(check), std::string::npos) << error.what();
    }
}

TEST(OnlineSweep, CheckpointRejectsHistogramCountsThatWrap) {
    // 2^63 more in two bins wraps the bins' sum back to the stored total.
    // Restored, the first refresh would score a survival above 1.
    SmallCheckpoint checkpoint = small_checkpoint();
    EXPECT_NO_THROW(restore_checkpoint(checkpoint.image, "intact"));
    for (const std::size_t bin : {0, 1}) {
        std::byte* at = checkpoint.image.data() + checkpoint.counts_at + 8 * bin;
        wire::put_u64(at, wire::get_u64(at) + (std::uint64_t{1} << 63));
    }
    expect_refused(checkpoint.image, "checkpoint histogram counts do not sum");
}

TEST(OnlineSweep, CheckpointRejectsShannonSlotsAboveTheRegisterBound) {
    SmallCheckpoint checkpoint = small_checkpoint();
    std::byte* slots_at = checkpoint.image.data() + 56;
    ASSERT_EQ(wire::get_u64(slots_at), 10u);
    for (const std::uint64_t slots : {std::uint64_t{kMaxShannonSlots} + 1,
                                      std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
        wire::put_u64(slots_at, slots);
        expect_refused(checkpoint.image, "bad checkpoint shannon slot count");
    }
    // The bound itself restores and scores.
    wire::put_u64(slots_at, kMaxShannonSlots);
    wire::put_u64(checkpoint.image.data() + checkpoint.image.size() - 8,
                  wire::fnv1a64(checkpoint.image.data(), checkpoint.image.size() - 8));
    OnlineSweepEngine restored = restore_checkpoint(checkpoint.image, "at the bound");
    EXPECT_EQ(restored.options().shannon_slots, kMaxShannonSlots);
    const std::vector<Event> events = {{0, 1, 0}, {1, 2, 2}, {0, 2, 4}, {0, 1, 7}};
    EXPECT_NO_THROW(restored.refresh(events));
    // An engine is never built with more than a checkpoint can hold.
    OnlineSweepOptions options;
    options.grid = {1, 5};
    options.shannon_slots = kMaxShannonSlots + 1;
    EXPECT_THROW(OnlineSweepEngine(3, false, options), contract_error);
}

TEST(OnlineSweep, CheckpointRejectsMomentLimbsAboveTheSampleBound) {
    // A moment is a sum of at most 2^64 - 1 samples in [0, 1], so limbs 18
    // and up (weights from 2^78) are zero.  Unchecked, all-ones limbs
    // restore, and the first refresh carries out of limb 35.
    const SmallCheckpoint checkpoint = small_checkpoint();
    std::vector<std::byte> all_ones = checkpoint.image;
    for (std::size_t i = 0; i < ExactSum::kLimbs; ++i) {
        wire::put_u64(all_ones.data() + checkpoint.moment_sum_at + 8 * i,
                      std::numeric_limits<std::uint64_t>::max());
    }
    expect_refused(all_ones, "checkpoint moment sums out of range");
    for (const std::size_t at : {checkpoint.moment_sum_at + 8 * 18,
                                 checkpoint.moment_sum_sq_at + 8 * (ExactSum::kLimbs - 1)}) {
        std::vector<std::byte> image = checkpoint.image;
        wire::put_u64(image.data() + at, 1);
        expect_refused(image, "checkpoint moment sums out of range");
    }
}

TEST(OnlineSweep, KernelRuleBudgetsEveryPeriodsTables) {
    // Dense needs select_backend's dense verdict for n AND the tables of
    // all periods, n^2 x 8 B each, within kDenseMemoryBudgetBytes.
    using enum ReachabilityBackend;
    EXPECT_EQ(OnlineSweepEngine::initial_backend(150, 48), dense);    // 8.2 MiB
    EXPECT_EQ(OnlineSweepEngine::initial_backend(1024, 24), dense);   // exactly 192 MiB
    EXPECT_EQ(OnlineSweepEngine::initial_backend(1024, 25), sparse);  // 200 MiB
    EXPECT_EQ(OnlineSweepEngine::initial_backend(2047, 1), dense);
    EXPECT_EQ(OnlineSweepEngine::initial_backend(kSparseMinNodes, 1), sparse);

    // Construction applies it to every period.
    const auto engine = [](NodeId n, std::size_t periods) {
        OnlineSweepOptions options;
        for (std::size_t g = 1; g <= periods; ++g) options.grid.push_back(static_cast<Time>(g));
        return OnlineSweepEngine(n, false, options);
    };
    expect_backend(engine(150, 48), dense);
    expect_backend(engine(1024, 25), sparse);
}

TEST(OnlineSweep, DensePeriodCrossingWindowIndexLimitContinuesSparse) {
    // Delta = 1 over timestamps around 2^32: window k = t + 1 reaches
    // 2^32 - 1, past the dense kernel's rank range, mid-stream.  That
    // period moves its state to the sparse kernel and continues there,
    // while the coarse period stays dense: a grid that mixes both kernels.
    // Every refresh equals the cold batch run, and so does a checkpoint
    // restored after the move.
    const NodeId n = 24;
    const Time base = (Time{1} << 32) - 400;  // window 2^32 - 1 starts at base + 398
    const Time period_end = base + 800;
    std::vector<Event> sorted = random_events(11, n, 800, 500, false);
    for (Event& event : sorted) event.t += base;
    std::sort(sorted.begin(), sorted.end());

    OnlineSweepOptions options;
    options.grid = {1, 1000};
    options.num_threads = 1;
    OnlineSweepEngine online(n, false, options);
    expect_backend(online, ReachabilityBackend::dense);

    const auto expect_matches_cold = [&](std::size_t count) {
        SCOPED_TRACE("events=" + std::to_string(count));
        const std::vector<Event> prefix(sorted.begin(),
                                        sorted.begin() + static_cast<std::ptrdiff_t>(count));
        std::vector<Histogram01> online_hists;
        const OnlineReport report = online.refresh(prefix, &online_hists);
        std::vector<Histogram01> cold_hists;
        const std::vector<DeltaPoint> cold =
            cold_sweep(prefix, n, period_end, false, options.grid, 1, &cold_hists);
        ASSERT_EQ(cold.size(), report.points.size());
        for (std::size_t g = 0; g < cold.size(); ++g) {
            expect_identical_points(report.points[g], cold[g]);
            expect_identical_histograms(online_hists[g], cold_hists[g]);
        }
    };
    // The watermark lags the feed, so refresh tails cross the limit on
    // their clones before the frozen state does.
    for (const std::size_t count : {std::size_t{125}, std::size_t{250}, std::size_t{375},
                                    sorted.size()}) {
        online.sync(std::span(sorted).first(count), sorted[count * 2 / 3].t);
        expect_matches_cold(count);
        if (count == 125) {
            ASSERT_LT(sorted[count].t, (Time{1} << 32) - 2);
            EXPECT_EQ(online.period_backend(0), ReachabilityBackend::dense);
        }
    }
    online.sync(sorted, kInfiniteTime);
    expect_matches_cold(sorted.size());
    EXPECT_EQ(online.period_backend(0), ReachabilityBackend::sparse);
    EXPECT_EQ(online.period_backend(1), ReachabilityBackend::dense);

    // The moved period's rows hold windows past the rank range, so it
    // restores sparse; the coarse one restores dense.
    const std::vector<std::byte> image = serialize_checkpoint(online);
    OnlineSweepEngine restored = restore_checkpoint(image, "crossing");
    EXPECT_EQ(restored.period_backend(0), ReachabilityBackend::sparse);
    EXPECT_EQ(restored.period_backend(1), ReachabilityBackend::dense);
    EXPECT_EQ(serialize_checkpoint(restored), image);
}

TEST(StreamIngestor, ReordersWithinHorizonAndTracksWatermark) {
    IngestorOptions options;
    options.reorder_horizon = 10;
    StreamIngestor ingestor(8, false, options);
    EXPECT_TRUE(ingestor.append({0, 1, 100}));
    EXPECT_TRUE(ingestor.append({2, 3, 95}));   // within horizon, reordered
    EXPECT_TRUE(ingestor.append({1, 2, 105}));
    EXPECT_EQ(ingestor.watermark(), 95);
    EXPECT_EQ(ingestor.counters().reordered, 1u);
    // Everything below watermark 95 is finalized — nothing yet.
    EXPECT_TRUE(ingestor.finalized().empty());
    EXPECT_TRUE(ingestor.append({4, 5, 120}));
    EXPECT_EQ(ingestor.watermark(), 110);
    const auto finalized = ingestor.finalized();
    ASSERT_EQ(finalized.size(), 3u);
    EXPECT_EQ(finalized[0], (Event{2, 3, 95}));
    EXPECT_EQ(finalized[1], (Event{0, 1, 100}));
    EXPECT_EQ(finalized[2], (Event{1, 2, 105}));

    // Too late: 120 - 10 = 110 is the watermark.
    EXPECT_FALSE(ingestor.append({0, 1, 80}));
    EXPECT_EQ(ingestor.counters().late_dropped, 1u);

    ingestor.close();
    EXPECT_EQ(ingestor.finalized().size(), 4u);
    EXPECT_TRUE(ingestor.pending().empty());
}

TEST(StreamIngestor, DuplicateAndLatePolicies) {
    IngestorOptions options;
    options.reorder_horizon = 5;
    options.duplicates = DuplicatePolicy::drop;
    StreamIngestor ingestor(4, false, options);
    EXPECT_TRUE(ingestor.append({0, 1, 10}));
    EXPECT_FALSE(ingestor.append({0, 1, 10}));  // exact duplicate in buffer
    EXPECT_TRUE(ingestor.append({0, 2, 10}));   // same instant, different pair
    EXPECT_EQ(ingestor.counters().duplicates_dropped, 1u);

    IngestorOptions reject;
    reject.late = LatePolicy::reject;
    StreamIngestor strict(4, false, reject);
    EXPECT_TRUE(strict.append({0, 1, 10}));
    EXPECT_THROW(strict.append({0, 1, 5}), contract_error);

    // Validation: out-of-range endpoints, self-loops, non-canonical order.
    StreamIngestor u(4, false, {});
    EXPECT_THROW(u.append({0, 9, 1}), contract_error);
    EXPECT_THROW(u.append({1, 1, 1}), contract_error);
    EXPECT_THROW(u.append({2, 1, 1}), contract_error);
    EXPECT_THROW(u.append({0, 1, -1}), contract_error);
    StreamIngestor d(4, true, {});
    EXPECT_TRUE(d.append({2, 1, 1}));  // directed streams keep orientation
}

TEST(OnlineSweep, SparseRelaxInstantResumesBitIdentically) {
    // The resumable entry points the online engine drives: relaxing
    // snapshots [k, K) and then, on the same state, [0, k) — each range
    // backward — emits exactly the full scan's trips and leaves exactly its
    // state.
    const Scenario sc = kScenarios[0];
    std::vector<Event> sorted =
        random_events(sc.seed + 3, sc.n, sc.period, 300, sc.directed);
    std::sort(sorted.begin(), sorted.end());
    const LinkStream stream(sorted, sc.n, sc.period, sc.directed);
    const GraphSeries series = aggregate(stream, 250);
    const auto snapshots = series.snapshots();

    SparseTemporalReachability whole;
    std::vector<MinimalTrip> expected;
    whole.scan_series(series, [&](const MinimalTrip& t) { expected.push_back(t); });

    for (const std::size_t split : {std::size_t{0}, snapshots.size() / 3, snapshots.size()}) {
        SparseTemporalReachability split_scan;
        std::vector<MinimalTrip> got;
        const auto relax_backward = [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = end; i-- > begin;) {
                split_scan.relax_instant(snapshots[i].edges, series.directed(), snapshots[i].k,
                                         [&](const MinimalTrip& t) { got.push_back(t); });
            }
        };
        split_scan.begin(series.num_nodes());
        relax_backward(split, snapshots.size());
        relax_backward(0, split);
        EXPECT_EQ(got, expected) << "split=" << split;
        EXPECT_EQ(split_scan.state_rows(), whole.state_rows());
    }
}

TEST(OnlineSweep, DenseRelaxWindowResumesBitIdentically) {
    // The dense kernel's resumable form against the sparse one: windows fed
    // time-reversed (window k is the instant labelled -k) in two splits —
    // on one engine, and on a second one restored from the first's rows —
    // emit exactly the sparse kernel's trip sequence and leave exactly its
    // state_rows().
    for (const Scenario& sc : {kScenarios[0], kScenarios[1]}) {
        std::vector<Event> sorted =
            random_events(sc.seed + 3, sc.n, sc.period, 300, sc.directed);
        std::sort(sorted.begin(), sorted.end());
        const LinkStream stream(sorted, sc.n, sc.period, sc.directed);
        const GraphSeries series = aggregate(stream, sc.period / 16);
        const auto snapshots = series.snapshots();

        SparseTemporalReachability sparse;
        std::vector<MinimalTrip> expected;
        sparse.begin(series.num_nodes());
        for (const auto& snapshot : snapshots) {
            sparse.relax_instant(snapshot.edges, series.directed(), -snapshot.k,
                                 [&](const MinimalTrip& t) { expected.push_back(t); });
        }
        ASSERT_FALSE(expected.empty());

        const auto relax_forward = [&](TemporalReachability& engine, std::size_t begin,
                                       std::size_t end, std::vector<MinimalTrip>& trips) {
            for (std::size_t i = begin; i < end; ++i) {
                engine.relax_window(snapshots[i].edges, series.directed(), snapshots[i].k,
                                    [&](const MinimalTrip& t) { trips.push_back(t); });
            }
        };
        for (const std::size_t split :
             {std::size_t{0}, snapshots.size() / 3, snapshots.size()}) {
            SCOPED_TRACE("n=" + std::to_string(sc.n) + " split=" + std::to_string(split));
            TemporalReachability first;
            std::vector<MinimalTrip> got;
            first.begin(series.num_nodes());
            relax_forward(first, 0, split, got);

            TemporalReachability resumed;
            resumed.restore_state(series.num_nodes(), first.state_rows());
            std::vector<MinimalTrip> got_resumed = got;
            relax_forward(first, split, snapshots.size(), got);
            relax_forward(resumed, split, snapshots.size(), got_resumed);
            EXPECT_EQ(got, expected);
            EXPECT_EQ(got_resumed, expected);
            EXPECT_EQ(first.state_rows(), sparse.state_rows());
            EXPECT_EQ(resumed.state_rows(), sparse.state_rows());
        }
    }
}

}  // namespace
}  // namespace natscale

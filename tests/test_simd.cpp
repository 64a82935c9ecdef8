// Differential suite for the runtime-dispatched SIMD kernels (util/simd):
// every op of every ISA the host can execute must be byte-identical to the
// scalar reference at every width — including 0, 1, and every remainder
// around the 4-lane (AVX2) and 8-lane (AVX-512) boundaries — and the full
// pipeline (sweep points, saturation gamma, histogram moments) must be
// bitwise identical between scalar and vector dispatch over the whole
// generator corpus, at 1 and 4 threads, with every period also scanned
// through the sparse engine directly (the corpus resolves to dense).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "core/saturation.hpp"
#include "gen/registry.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/reachability.hpp"
#include "temporal/reachability_backend.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace natscale {
namespace {

/// Restores the process-global dispatch on scope exit, so a failing test
/// cannot leak a forced ISA into the rest of the suite.
class IsaGuard {
public:
    IsaGuard() : saved_(active_simd_isa()) {}
    ~IsaGuard() { set_simd_isa(saved_); }
    IsaGuard(const IsaGuard&) = delete;
    IsaGuard& operator=(const IsaGuard&) = delete;

private:
    SimdIsa saved_;
};

/// Widths covering the empty case, scalar tails, and both vector register
/// boundaries (4 lanes for AVX2, 8 for AVX-512) with every remainder.
const std::vector<std::size_t> kWidths = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,
                                          15, 16, 17, 31, 32, 33, 63, 64, 65, 100,
                                          127, 128, 129, 1000};

/// Random packed (arrival_rank << 32 | hops) cells, including a sprinkling
/// of the unreachable sentinel; +1 never wraps on any of them, matching the
/// kernel's contract.
std::vector<std::uint64_t> random_packed(Rng& rng, std::size_t width) {
    constexpr std::uint64_t kUnreachable = 0xFFFFFFFF00000000ULL;
    std::vector<std::uint64_t> cells(width);
    for (auto& cell : cells) {
        if (rng.uniform_index(4) == 0) {
            cell = kUnreachable;
        } else {
            cell = (static_cast<std::uint64_t>(rng.uniform_index(1u << 20)) << 32) |
                   rng.uniform_index(1u << 16);
        }
    }
    return cells;
}

TEST(SimdDispatch, NamesRoundTripAndAutoIsNotAnIsa) {
    for (const SimdIsa isa : {SimdIsa::scalar, SimdIsa::avx2, SimdIsa::avx512}) {
        SimdIsa parsed = SimdIsa::scalar;
        ASSERT_TRUE(parse_simd_isa(to_string(isa), parsed)) << to_string(isa);
        EXPECT_EQ(parsed, isa);
    }
    SimdIsa out = SimdIsa::scalar;
    EXPECT_FALSE(parse_simd_isa("auto", out));  // resolved by detect, not parse
    EXPECT_FALSE(parse_simd_isa("", out));
    EXPECT_FALSE(parse_simd_isa("AVX2", out));
}

TEST(SimdDispatch, ScalarAlwaysSupportedAndListedFirst) {
    const auto isas = supported_simd_isas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), SimdIsa::scalar);
    EXPECT_TRUE(simd_isa_supported(SimdIsa::scalar));
    // The detected ISA must itself be executable here.
    EXPECT_TRUE(simd_isa_supported(detect_simd_isa()));
}

TEST(SimdDispatch, SetSwitchesTheTableAndRejectsUnsupported) {
    IsaGuard guard;
    ASSERT_TRUE(set_simd_isa(SimdIsa::scalar));
    EXPECT_EQ(active_simd_isa(), SimdIsa::scalar);
    EXPECT_EQ(simd::ops().packed_min_add1, simd::kScalarOps.packed_min_add1);
    EXPECT_EQ(simd::ops().diff_masks, simd::kScalarOps.diff_masks);
    for (const SimdIsa isa : {SimdIsa::scalar, SimdIsa::avx2, SimdIsa::avx512}) {
        if (simd_isa_supported(isa)) {
            EXPECT_TRUE(set_simd_isa(isa));
            EXPECT_EQ(active_simd_isa(), isa);
        } else {
            const SimdIsa before = active_simd_isa();
            EXPECT_FALSE(set_simd_isa(isa));
            EXPECT_EQ(active_simd_isa(), before);  // a refused set changes nothing
        }
    }
}

TEST(SimdKernels, PackedMinAdd1MatchesScalarAtEveryWidth) {
    IsaGuard guard;
    Rng rng(11);
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        const simd::Ops& vec = simd::ops();
        for (const std::size_t width : kWidths) {
            for (int round = 0; round < 4; ++round) {
                const auto wrow = random_packed(rng, width);
                const auto base = random_packed(rng, width);
                auto expected = base;
                simd::kScalarOps.packed_min_add1(expected.data(), wrow.data(), width);
                auto actual = base;
                vec.packed_min_add1(actual.data(), wrow.data(), width);
                ASSERT_EQ(actual, expected)
                    << "isa=" << to_string(isa) << " width=" << width;
            }
        }
    }
}

/// One (now, before) row pair of the mask op's test: every cell is one of
/// the cases the dense kernel meets, picked at random.
struct MaskRows {
    std::vector<std::uint64_t> now;
    std::vector<std::uint64_t> before;
};

MaskRows mask_rows(Rng& rng, std::size_t width) {
    constexpr std::uint64_t kUnreachable = 0xFFFFFFFF00000000ULL;
    constexpr std::uint64_t kRankOne = 1ULL << 32;
    MaskRows rows{random_packed(rng, width), random_packed(rng, width)};
    for (std::size_t j = 0; j < width; ++j) {
        std::uint64_t& now = rows.now[j];
        std::uint64_t& before = rows.before[j];
        switch (rng.uniform_index(7)) {
            case 0:  // equal
                now = before;
                break;
            case 1:  // hops alone changed: changed, not improved
                now = before ^ 1;
                break;
            case 2:  // arrival rank decreased
                before |= kRankOne;
                now = before - kRankOne;
                break;
            case 3:  // unreachable -> reachable
                before = kUnreachable;
                break;
            case 4:  // ranks straddling 2^31: an unsigned compare is needed
                before = (0x80000000ULL << 32) | 5;
                now = (0x7FFFFFFFULL << 32) | 9;
                if (rng.uniform_index(2) == 0) std::swap(now, before);
                break;
            default:  // independent random cells
                break;
        }
    }
    return rows;
}

TEST(SimdKernels, DiffMasksMatchesScalarAtEveryWidth) {
    IsaGuard guard;
    // Written after the ceil(width / 64) output words of each bitmap; the
    // op must leave it alone.
    constexpr std::uint64_t kCanary = 0xC0FFEE0DDBA11F00ULL;
    Rng rng(19);
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        const simd::Ops& vec = simd::ops();
        for (const std::size_t width : kWidths) {
            const std::size_t words = (width + 63) / 64;
            for (int round = 0; round < 4; ++round) {
                const MaskRows rows = mask_rows(rng, width);
                std::vector<std::uint64_t> want_improved(words + 1, kCanary);
                std::vector<std::uint64_t> want_changed(words + 1, kCanary);
                simd::kScalarOps.diff_masks(rows.now.data(), rows.before.data(), width,
                                            want_improved.data(), want_changed.data());
                // The scalar reference against the definition, bit by bit.
                for (std::size_t j = 0; j < words * 64; ++j) {
                    const bool improved =
                        j < width && (rows.now[j] >> 32) < (rows.before[j] >> 32);
                    const bool changed = j < width && rows.now[j] != rows.before[j];
                    ASSERT_EQ((want_improved[j / 64] >> (j % 64)) & 1, improved ? 1u : 0u)
                        << "width=" << width << " j=" << j;
                    ASSERT_EQ((want_changed[j / 64] >> (j % 64)) & 1, changed ? 1u : 0u)
                        << "width=" << width << " j=" << j;
                }
                ASSERT_EQ(want_improved[words], kCanary);
                ASSERT_EQ(want_changed[words], kCanary);

                std::vector<std::uint64_t> improved(words + 1, kCanary);
                std::vector<std::uint64_t> changed(words + 1, kCanary);
                vec.diff_masks(rows.now.data(), rows.before.data(), width, improved.data(),
                               changed.data());
                ASSERT_EQ(improved, want_improved)
                    << "isa=" << to_string(isa) << " width=" << width;
                ASSERT_EQ(changed, want_changed)
                    << "isa=" << to_string(isa) << " width=" << width;
            }
        }
    }
}

// --- scan-level parity -------------------------------------------------------

LinkStream random_stream(std::uint64_t seed, NodeId n, std::size_t num_events,
                         Time period) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(num_events);
    for (std::size_t i = 0; i < num_events; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        events.push_back({u, v, rng.uniform_int(0, period - 1)});
    }
    return LinkStream(std::move(events), n, period, false);
}

// --- corpus-wide pipeline parity ---------------------------------------------

void expect_identical_point(const std::string& context, const DeltaPoint& a,
                            const DeltaPoint& b) {
    EXPECT_EQ(a.delta, b.delta) << context;
    EXPECT_EQ(a.num_trips, b.num_trips) << context;
    EXPECT_EQ(a.occupancy_mean, b.occupancy_mean) << context;
    EXPECT_EQ(a.scores.mk_proximity, b.scores.mk_proximity) << context;
    EXPECT_EQ(a.scores.std_deviation, b.scores.std_deviation) << context;
    EXPECT_EQ(a.scores.variation_coefficient, b.scores.variation_coefficient) << context;
    EXPECT_EQ(a.scores.shannon_entropy, b.scores.shannon_entropy) << context;
    EXPECT_EQ(a.scores.cre, b.scores.cre) << context;
}

void expect_identical_histogram(const std::string& context, const Histogram01& a,
                                const Histogram01& b) {
    EXPECT_EQ(a.counts(), b.counts()) << context;
    EXPECT_EQ(a.total(), b.total()) << context;
    std::uint64_t ma = 0, mb = 0, sa = 0, sb = 0;
    const double da = a.mean(), db = b.mean();
    const double va = a.population_stddev(), vb = b.population_stddev();
    std::memcpy(&ma, &da, sizeof da);
    std::memcpy(&mb, &db, sizeof db);
    std::memcpy(&sa, &va, sizeof va);
    std::memcpy(&sb, &vb, sizeof vb);
    EXPECT_EQ(ma, mb) << context;
    EXPECT_EQ(sa, sb) << context;
}

std::vector<Time> corpus_grid(const gen::GenSpec& spec, const LinkStream& stream) {
    if (spec.model == "int64_edge") {
        return geometric_delta_grid(stream.period_end() / 16, stream.period_end(), 6);
    }
    return geometric_delta_grid(1, stream.period_end(), 6);
}

TEST(SimdScan, CorpusSweepBitIdenticalAcrossIsasBackendsAndThreads) {
    IsaGuard guard;
    for (const auto& spec : gen::default_corpus()) {
        if (spec.model == "empty") continue;  // sweeps reject empty streams
        const auto stream = gen::generate_stream(spec).stream;
        const auto grid = corpus_grid(spec, stream);

        // Scalar dispatch, sequential scan: the reference every other
        // (ISA, thread count) combination must reproduce bitwise.
        ASSERT_TRUE(set_simd_isa(SimdIsa::scalar));
        DeltaSweepOptions baseline_options;
        baseline_options.num_threads = 1;
        DeltaSweepEngine baseline_engine(stream, baseline_options);
        std::vector<Histogram01> baseline_hists;
        const auto baseline = baseline_engine.evaluate(grid, &baseline_hists);

        for (const SimdIsa isa : supported_simd_isas()) {
            ASSERT_TRUE(set_simd_isa(isa));
            for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
                const std::string context = gen::to_string(spec) + " isa=" + to_string(isa) +
                                            " threads=" + std::to_string(threads);
                DeltaSweepOptions options;
                options.num_threads = threads;
                DeltaSweepEngine engine(stream, options);
                std::vector<Histogram01> hists;
                const auto points = engine.evaluate(grid, &hists);
                ASSERT_EQ(points.size(), baseline.size()) << context;
                for (std::size_t i = 0; i < points.size(); ++i) {
                    expect_identical_point(context, points[i], baseline[i]);
                    expect_identical_histogram(context, hists[i], baseline_hists[i]);
                }
            }
            // The sparse engine under this ISA against the scalar sweep.
            SparseTemporalReachability sparse;
            for (std::size_t i = 0; i < grid.size(); ++i) {
                Histogram01 hist(baseline_hists[i].num_bins());
                sparse.scan_series(aggregate(stream, grid[i]), [&](const MinimalTrip& trip) {
                    hist.add(series_occupancy(trip));
                });
                expect_identical_histogram(gen::to_string(spec) + " isa=" + to_string(isa) +
                                               " sparse engine",
                                           hist, baseline_hists[i]);
            }
        }
    }
}

TEST(SimdScan, SaturationGammaBitIdenticalAcrossIsas) {
    IsaGuard guard;
    const auto stream = random_stream(29, 80, 900, 25'000);
    SweepConfig options;
    options.coarse_points = 10;
    options.refine_rounds = 1;
    options.refine_points = 3;
    options.histogram_bins = 360;

    // Scalar dispatch, sequential scans: the reference.
    ASSERT_TRUE(set_simd_isa(SimdIsa::scalar));
    options.num_threads = 1;
    const auto reference = find_saturation_scale(stream, options);

    // The same search on a 4-thread pool, under every ISA.
    options.num_threads = 4;
    for (const SimdIsa isa : supported_simd_isas()) {
        ASSERT_TRUE(set_simd_isa(isa));
        const auto result = find_saturation_scale(stream, options);
        const std::string context = std::string("isa=") + to_string(isa);
        EXPECT_EQ(result.gamma, reference.gamma) << context;
        ASSERT_EQ(result.curve.size(), reference.curve.size()) << context;
        for (std::size_t i = 0; i < result.curve.size(); ++i) {
            expect_identical_point(context, result.curve[i], reference.curve[i]);
        }
        expect_identical_point(context, result.at_gamma, reference.at_gamma);
        expect_identical_histogram(context, result.gamma_histogram,
                                   reference.gamma_histogram);
    }
}

}  // namespace
}  // namespace natscale

// Tests for activity segmentation and per-regime saturation scales — the
// paper's second extension perspective (Section 9).
#include <gtest/gtest.h>

#include "core/segmentation.hpp"
#include "gen/registry.hpp"
#include "util/contracts.hpp"

namespace natscale {
namespace {

TEST(Segmentation, HomogeneousStreamIsOneRegime) {
    const auto stream = gen::generate_stream("uniform:n=15,links=10,T=10000", 3).stream;
    const auto segments = segment_by_activity(stream);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_TRUE(segments.front().high_activity);
    EXPECT_EQ(segments.front().begin, 0);
    EXPECT_EQ(segments.front().end, 10'000);
}

TEST(Segmentation, TwoModeStreamSplitsIntoAlternations) {
    const auto stream =
        gen::generate_stream(
            "two_mode:n=20,alternations=5,links_high=20,links_low=1,T=50000,low_share=0.5",
            11)
            .stream;

    SegmentationOptions options;
    options.probe_bins = 100;  // 20 bins per cycle
    const auto segments = segment_by_activity(stream, options);

    // 5 high + 5 low runs expected (within 1 of each due to bin rounding).
    std::size_t high_runs = 0;
    std::size_t low_runs = 0;
    for (const auto& seg : segments) (seg.high_activity ? high_runs : low_runs) += 1;
    EXPECT_NEAR(static_cast<double>(high_runs), 5.0, 1.0);
    EXPECT_NEAR(static_cast<double>(low_runs), 5.0, 1.0);

    // Segments tile the period and alternate.
    Time cursor = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
        EXPECT_EQ(segments[i].begin, cursor);
        EXPECT_GT(segments[i].end, segments[i].begin);
        if (i > 0) {
            EXPECT_NE(segments[i].high_activity, segments[i - 1].high_activity);
        }
        cursor = segments[i].end;
    }
    EXPECT_EQ(cursor, 50'000);

    // High segments are denser.
    double high_rate = 0.0, low_rate = 1e18;
    for (const auto& seg : segments) {
        if (seg.high_activity) high_rate = std::max(high_rate, seg.events_per_tick);
        else low_rate = std::min(low_rate, seg.events_per_tick);
    }
    EXPECT_GT(high_rate, 2.0 * low_rate);
}

TEST(Segmentation, SegmentBoundariesNearTruth) {
    // cycle 10'000, switch at 5'000 within cycle
    const auto stream =
        gen::generate_stream(
            "two_mode:n=20,alternations=4,links_high=20,links_low=1,T=40000,low_share=0.5",
            7)
            .stream;
    SegmentationOptions options;
    options.probe_bins = 200;  // bin width 200 ticks
    const auto segments = segment_by_activity(stream, options);
    for (const auto& seg : segments) {
        // Every boundary should sit within one bin of a true switch point
        // (multiples of 5'000).
        const Time misalignment = seg.begin % 5'000;
        EXPECT_TRUE(misalignment <= 400 || misalignment >= 4'600)
            << "boundary at " << seg.begin;
    }
}

TEST(CompactRegime, ExtractsAndShiftsEvents) {
    LinkStream stream({{0, 1, 100}, {1, 2, 250}, {0, 2, 900}}, 3, 1'000);
    std::vector<ActivitySegment> segments{
        {0, 300, true, 0.0}, {300, 800, false, 0.0}, {800, 1'000, true, 0.0}};
    const auto high = compact_regime(stream, segments, true);
    EXPECT_EQ(high.period_end(), 500);  // 300 + 200
    ASSERT_EQ(high.num_events(), 3u);
    EXPECT_EQ(high.events()[0].t, 100);
    EXPECT_EQ(high.events()[1].t, 250);
    EXPECT_EQ(high.events()[2].t, 400);  // 900 - 800 + 300

    const auto low = compact_regime(stream, segments, false);
    EXPECT_EQ(low.period_end(), 500);
    EXPECT_TRUE(low.empty());
}

TEST(CompactRegime, AbsentRegimeYieldsEmptyStream) {
    LinkStream stream({{0, 1, 5}}, 2, 10);
    std::vector<ActivitySegment> segments{{0, 10, true, 0.1}};
    const auto low = compact_regime(stream, segments, false);
    EXPECT_TRUE(low.empty());
    EXPECT_EQ(low.period_end(), 1);
}

TEST(SegmentedSaturation, RecoversPerModeGammas) {
    // The headline property: per-regime gammas approximate the gammas of the
    // pure modes, and the recommendation is the smaller one.
    const auto stream =
        gen::generate_stream(
            "two_mode:n=25,alternations=5,links_high=24,links_low=2,T=50000,low_share=0.5",
            17)
            .stream;

    SweepConfig sat;
    sat.coarse_points = 20;
    sat.refine_rounds = 1;
    sat.histogram_bins = 400;
    SegmentationOptions seg;
    seg.probe_bins = 100;

    const auto result = find_segmented_saturation(stream, seg, sat);
    ASSERT_TRUE(result.split);
    EXPECT_GT(result.gamma_high, 0);
    EXPECT_GT(result.gamma_low, 0);
    EXPECT_LT(result.gamma_high, result.gamma_low);  // denser regime, smaller gamma
    EXPECT_EQ(result.recommended, result.gamma_high);

    // Pure-mode references.
    const auto pure_high =
        gen::generate_stream(
            "two_mode:n=25,alternations=5,links_high=24,links_low=2,T=50000,low_share=0.0",
            17)
            .stream;
    const Time gamma_pure_high = find_saturation_scale(pure_high, sat).gamma;
    EXPECT_LT(result.gamma_high, 4 * gamma_pure_high + 4);
    EXPECT_GT(4 * result.gamma_high, gamma_pure_high / 4);
}

TEST(SegmentedSaturation, HomogeneousFallsBackToGlobalGamma) {
    const auto stream = gen::generate_stream("uniform:n=15,links=8,T=10000", 5).stream;

    SweepConfig sat;
    sat.coarse_points = 20;
    sat.refine_rounds = 1;
    sat.histogram_bins = 400;
    const auto result = find_segmented_saturation(stream, {}, sat);
    EXPECT_FALSE(result.split);
    EXPECT_EQ(result.gamma_low, 0);
    EXPECT_EQ(result.recommended, result.gamma_high);
    const Time global = find_saturation_scale(stream, sat).gamma;
    EXPECT_NEAR(static_cast<double>(result.gamma_high), static_cast<double>(global),
                0.3 * static_cast<double>(global) + 2.0);
}

TEST(SegmentedSaturation, RejectsEmptyStream) {
    LinkStream empty({}, 3, 100);
    EXPECT_THROW(find_segmented_saturation(empty), contract_error);
}

TEST(Segmentation, OptionValidation) {
    LinkStream stream({{0, 1, 5}}, 2, 10);
    SegmentationOptions bad;
    bad.probe_bins = 1;
    EXPECT_THROW(segment_by_activity(stream, bad), contract_error);
    SegmentationOptions bad_ratio;
    bad_ratio.min_rate_ratio = 0.5;
    EXPECT_THROW(segment_by_activity(stream, bad_ratio), contract_error);
}

}  // namespace
}  // namespace natscale

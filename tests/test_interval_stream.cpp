// Tests for interval (lasting) links and oversampling into punctual streams
// — the paper's first extension perspective (Section 9).
#include <gtest/gtest.h>

#include "core/saturation.hpp"
#include "linkstream/interval_stream.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

TEST(IntervalStream, ConstructionAndAccessors) {
    IntervalStream stream({{0, 1, 5, 15}, {1, 2, 0, 3}}, 3, 20);
    EXPECT_EQ(stream.num_intervals(), 2u);
    EXPECT_EQ(stream.num_nodes(), 3u);
    EXPECT_EQ(stream.period_end(), 20);
    EXPECT_EQ(stream.total_active_time(), 13);
    EXPECT_FALSE(stream.directed());
}

TEST(IntervalStream, UndirectedCanonicalizes) {
    IntervalStream stream({{2, 0, 1, 4}}, 3, 10);
    EXPECT_EQ(stream.intervals()[0].u, 0u);
    EXPECT_EQ(stream.intervals()[0].v, 2u);
}

TEST(IntervalStream, ActiveAt) {
    // Sampled at every tick, an interval is active from its begin
    // (inclusive) to its end (exclusive), whichever way round it was given.
    for (const IntervalEvent& interval : {IntervalEvent{0, 1, 5, 15}, IntervalEvent{1, 0, 5, 15}}) {
        const LinkStream sampled = oversample(IntervalStream({interval}, 2, 20), {1, 0});
        ASSERT_EQ(sampled.num_events(), 10u);
        EXPECT_EQ(sampled.events().front().t, 5);
        EXPECT_EQ(sampled.events().back().t, 14);
        for (const Event& event : sampled.events()) {
            EXPECT_EQ(event.u, 0u);
            EXPECT_EQ(event.v, 1u);
        }
    }
}

TEST(IntervalStream, RejectsInvalidIntervals) {
    EXPECT_THROW(IntervalStream({{0, 0, 1, 5}}, 2, 10), contract_error);   // self-loop
    EXPECT_THROW(IntervalStream({{0, 1, 5, 5}}, 2, 10), contract_error);   // empty
    EXPECT_THROW(IntervalStream({{0, 1, 5, 3}}, 2, 10), contract_error);   // reversed
    EXPECT_THROW(IntervalStream({{0, 1, 0, 11}}, 2, 10), contract_error);  // past T
    EXPECT_THROW(IntervalStream({{0, 5, 0, 2}}, 2, 10), contract_error);   // bad node
}

TEST(Oversample, EmitsOneEventPerSamplingInstant) {
    IntervalStream stream({{0, 1, 5, 15}}, 2, 20);
    OversampleOptions options;
    options.sampling_period = 3;
    const LinkStream sampled = oversample(stream, options);
    // Sampling instants 0,3,6,9,12,15,18 -> inside [5,15): 6, 9, 12.
    ASSERT_EQ(sampled.num_events(), 3u);
    EXPECT_EQ(sampled.events()[0].t, 6);
    EXPECT_EQ(sampled.events()[1].t, 9);
    EXPECT_EQ(sampled.events()[2].t, 12);
}

TEST(Oversample, PhaseShiftsTheClock) {
    IntervalStream stream({{0, 1, 5, 15}}, 2, 20);
    OversampleOptions options;
    options.sampling_period = 3;
    options.phase = 2;
    const LinkStream sampled = oversample(stream, options);
    // Instants 2,5,8,11,14,17 -> inside [5,15): 5, 8, 11, 14.
    ASSERT_EQ(sampled.num_events(), 4u);
    EXPECT_EQ(sampled.events()[0].t, 5);
    EXPECT_EQ(sampled.events()[3].t, 14);
}

TEST(Oversample, UnitPeriodCoversEveryTick) {
    IntervalStream stream({{0, 1, 3, 7}}, 2, 10);
    const LinkStream sampled = oversample(stream, {});
    EXPECT_EQ(sampled.num_events(), 4u);  // t = 3,4,5,6
}

TEST(Oversample, OverlappingIntervalsDeduplicated) {
    IntervalStream stream({{0, 1, 0, 6}, {0, 1, 3, 9}}, 2, 10);
    OversampleOptions options;
    options.sampling_period = 3;
    const LinkStream sampled = oversample(stream, options);
    // Instants 0,3,6: interval A gives 0,3; interval B gives 3,6; union 0,3,6.
    EXPECT_EQ(sampled.num_events(), 3u);
}

TEST(Oversample, ShortIntervalsBetweenSamplesAreMissed) {
    // A contact shorter than the sampling period can escape the sensor —
    // the measurement noise the related work [12, 3] studies.
    IntervalStream stream({{0, 1, 4, 6}}, 2, 20);
    OversampleOptions options;
    options.sampling_period = 10;
    const LinkStream sampled = oversample(stream, options);
    EXPECT_TRUE(sampled.empty());
}

TEST(Oversample, RejectsBadOptions) {
    IntervalStream stream({{0, 1, 0, 5}}, 2, 10);
    OversampleOptions bad;
    bad.sampling_period = 0;
    EXPECT_THROW(oversample(stream, bad), contract_error);
    OversampleOptions bad_phase;
    bad_phase.sampling_period = 5;
    bad_phase.phase = 5;
    EXPECT_THROW(oversample(stream, bad_phase), contract_error);
}

TEST(Oversample, OccupancyMethodRunsOnOversampledContacts) {
    // End-to-end: RFID-style contact intervals -> punctual stream -> gamma.
    Rng rng(99);
    std::vector<IntervalEvent> intervals;
    for (int i = 0; i < 400; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(25));
        NodeId v = static_cast<NodeId>(rng.uniform_index(25));
        if (u == v) v = (v + 1) % 25;
        const Time begin = rng.uniform_int(0, 19'000);
        const Time length = 20 + rng.uniform_int(0, 400);
        intervals.push_back({u, v, begin, std::min<Time>(begin + length, 20'000)});
    }
    IntervalStream contacts(std::move(intervals), 25, 20'000);
    OversampleOptions options;
    options.sampling_period = 20;  // SocioPatterns-style 20 s polling
    const LinkStream sampled = oversample(contacts, options);
    ASSERT_GT(sampled.num_events(), 100u);

    SweepConfig sat;
    sat.coarse_points = 20;
    sat.refine_rounds = 1;
    sat.histogram_bins = 400;
    const auto result = find_saturation_scale(sampled, sat);
    EXPECT_GE(result.gamma, options.sampling_period / 2);
    EXPECT_LT(result.gamma, 20'000);
}

}  // namespace
}  // namespace natscale

// Tests for the Section 8 validation measures: lost shortest transitions and
// the elongation factor of minimal trips.
#include <gtest/gtest.h>

#include "core/validation.hpp"
#include "gen/registry.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

LinkStream random_stream(std::uint64_t seed, NodeId n, int events, Time period) {
    Rng rng(seed);
    std::vector<Event> list;
    for (int i = 0; i < events; ++i) {
        const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
        NodeId v = static_cast<NodeId>(rng.uniform_index(n));
        if (u == v) v = (v + 1) % n;
        list.push_back({u, v, rng.uniform_int(0, period - 1)});
    }
    return LinkStream(std::move(list), n, period, false);
}

TEST(LostTransitionsCurve, EndpointsAndShape) {
    const auto stream = random_stream(21, 12, 300, 10'000);
    const auto curve = lost_transitions_curve(stream, {1, 10, 100, 1'000, 10'000});
    ASSERT_EQ(curve.size(), 5u);
    EXPECT_DOUBLE_EQ(curve.front().lost_fraction, 0.0);   // resolution: nothing lost
    EXPECT_DOUBLE_EQ(curve.back().lost_fraction, 1.0);    // total aggregation: all lost
    for (const auto& point : curve) {
        EXPECT_GE(point.lost_fraction, 0.0);
        EXPECT_LE(point.lost_fraction, 1.0);
    }
    // Broad rise across decades.
    EXPECT_LE(curve[0].lost_fraction, curve[2].lost_fraction);
    EXPECT_LE(curve[2].lost_fraction, curve[4].lost_fraction);
}

TEST(LostTransitionsCurve, ReusesPrebuiltSet) {
    const auto stream = random_stream(22, 10, 150, 1'000);
    const ShortestTransitionSet set(stream);
    const auto a = lost_transitions_curve(set, {10, 100});
    const auto b = lost_transitions_curve(stream, {10, 100});
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].lost_fraction, b[i].lost_fraction);
    }
}

TEST(Elongation, HandComputedSingleTransition) {
    // 0-1 @ 10, 1-2 @ 25.  At delta = 10: trip (0,2) spans windows 2..3,
    // absolute span (3-2+1)*10 = 20; the stream trip takes 15 ticks.
    LinkStream stream({{0, 1, 10}, {1, 2, 25}}, 3, 50);
    const auto point = elongation_curve(stream, {10}).front();
    ASSERT_EQ(point.measured_trips, 1u);  // only the 2-window trip qualifies
    EXPECT_DOUBLE_EQ(point.mean_elongation, 20.0 / 15.0);
}

TEST(Elongation, AlwaysAtLeastOne) {
    // The embedded stream trip lives inside the trip's absolute window, so
    // its duration is at most the window span: e_P >= 1 ... the stream trip
    // can at most span the whole window, duration <= span - 1 < span.
    const auto stream = random_stream(23, 12, 300, 5'000);
    for (const auto& point : elongation_curve(stream, {3, 17, 101, 997})) {
        if (point.measured_trips > 0) {
            EXPECT_GE(point.mean_elongation, 1.0) << "delta=" << point.delta;
        }
    }
}

TEST(Elongation, NearOneAtFineAggregation) {
    // Fig. 8 right: at fine delta the aggregated trips barely stretch.
    const auto stream = random_stream(24, 12, 400, 10'000);
    const auto curve = elongation_curve(stream, {1, 2});
    for (const auto& point : curve) {
        ASSERT_GT(point.measured_trips, 0u);
        EXPECT_LT(point.mean_elongation, 1.3) << "delta=" << point.delta;
    }
}

TEST(Elongation, GrowsAroundSaturation) {
    // The mean elongation factor rises markedly between fine and coarse
    // aggregation.
    const auto stream = gen::generate_stream("uniform:n=15,links=5,T=10000", 25).stream;
    const auto curve = elongation_curve(stream, {2, 2'000});
    ASSERT_EQ(curve.size(), 2u);
    ASSERT_GT(curve[1].measured_trips, 0u);
    EXPECT_GT(curve[1].mean_elongation, curve[0].mean_elongation * 1.5);
}

TEST(Elongation, SingleWindowTripsSkipped) {
    // Delta large enough that every trip fits one window: nothing measurable.
    LinkStream stream({{0, 1, 10}, {1, 2, 25}}, 3, 50);
    const auto point = elongation_curve(stream, {50}).front();
    EXPECT_EQ(point.measured_trips, 0u);
    EXPECT_DOUBLE_EQ(point.mean_elongation, 0.0);
}

TEST(Elongation, SamplingCapRespected) {
    const auto stream = random_stream(26, 14, 500, 5'000);
    SweepConfig options;
    options.max_stored_trips = 50;  // force heavy sampling
    const auto curve = elongation_curve(stream, {10, 100}, options);
    ASSERT_EQ(curve.size(), 2u);
    // Sampled estimate stays in a sane range around the full measurement.
    const auto full = elongation_curve(stream, {10, 100});
    for (std::size_t i = 0; i < curve.size(); ++i) {
        if (curve[i].measured_trips == 0) continue;
        EXPECT_GT(curve[i].mean_elongation, 0.5 * full[i].mean_elongation);
        EXPECT_LT(curve[i].mean_elongation, 2.0 * full[i].mean_elongation);
    }
}

}  // namespace
}  // namespace natscale

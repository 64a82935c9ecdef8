// Order-independence suite for the exact accumulators: adding a multiset of
// samples in any order, or equal samples as one weighted add, must give the
// same bins, total, mean and stddev bit-for-bit (see stats/exact_sum.hpp).
// That property lets OccupancyTally add each (hops, duration) pair once:
// its flushed histogram must equal per-trip adds in every bit of state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/occupancy.hpp"
#include "stats/exact_sum.hpp"
#include "stats/histogram01.hpp"
#include "temporal/minimal_trip.hpp"
#include "testing/histograms.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

using testing::expect_identical_histograms;

bool same_bits(double a, double b) {
    std::uint64_t ia = 0;
    std::uint64_t ib = 0;
    std::memcpy(&ia, &a, sizeof a);
    std::memcpy(&ib, &b, sizeof b);
    return ia == ib;
}

// --- ExactSum --------------------------------------------------------------

TEST(ExactSum, MatchesSmallIntegerSums) {
    ExactSum sum;
    for (int i = 1; i <= 100; ++i) sum.add(static_cast<double>(i));
    EXPECT_EQ(sum.value(), 5050.0);
}

TEST(ExactSum, IsExactWhereNaiveSummationIsNot) {
    // 1 + 2^-60 * 2^60 == 2: naive double accumulation of one big value and
    // 2^60 tiny ones loses every tiny contribution; the superaccumulator
    // keeps them all (added via the multiplicity argument).
    ExactSum sum;
    sum.add(1.0);
    sum.add(std::ldexp(1.0, -60), std::uint64_t{1} << 60);
    EXPECT_EQ(sum.value(), 2.0);
}

TEST(ExactSum, OrderIndependentToTheBit) {
    Rng rng(7);
    std::vector<double> samples;
    for (int i = 0; i < 2000; ++i) {
        samples.push_back(rng.uniform01());  // in [0, 1)
    }
    ExactSum forward;
    for (double x : samples) forward.add(x);
    ExactSum backward;
    for (auto it = samples.rbegin(); it != samples.rend(); ++it) backward.add(*it);
    EXPECT_TRUE(forward == backward);
    EXPECT_TRUE(same_bits(forward.value(), backward.value()));
}

TEST(ExactSum, HandlesSubnormalsAndHugeCounts) {
    const double tiny = std::numeric_limits<double>::denorm_min();
    ExactSum sum;
    sum.add(tiny, std::numeric_limits<std::uint64_t>::max());
    // Exact value: denorm_min * (2^64 - 1) = 2^-1074 * (2^64 - 1).
    EXPECT_EQ(sum.value(), std::ldexp(1.0, -1074) * 1.8446744073709552e19);
    // Largest finite double at maximal count must not overflow the limbs.
    ExactSum big;
    big.add(std::numeric_limits<double>::max(), std::numeric_limits<std::uint64_t>::max());
    EXPECT_TRUE(std::isfinite(big.value()) || std::isinf(big.value()));
    EXPECT_FALSE(big.zero());
}

TEST(ExactSum, RejectsNegativeAndNonFinite) {
    ExactSum sum;
    EXPECT_THROW(sum.add(-1.0), contract_error);
    EXPECT_THROW(sum.add(std::numeric_limits<double>::infinity()), contract_error);
    EXPECT_THROW(sum.add(std::numeric_limits<double>::quiet_NaN()), contract_error);
    EXPECT_TRUE(sum.zero());
}

TEST(ExactSum, ZeroAndEmptyBehaviour) {
    ExactSum sum;
    EXPECT_TRUE(sum.zero());
    EXPECT_EQ(sum.value(), 0.0);
    sum.add(0.0, 1000);
    sum.add(0.5, 0);
    EXPECT_TRUE(sum.zero());
    sum.add(0.5);
    EXPECT_FALSE(sum.zero());
}

// --- Histogram01 weighted adds ---------------------------------------------

/// Occupancy-like samples: mostly rationals hops/duration in (0, 1], plus a
/// few adversarial values exercising the clamp paths.
std::vector<double> occupancy_like_samples(std::uint64_t seed, std::size_t count) {
    Rng rng(seed);
    std::vector<double> samples;
    samples.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto duration = static_cast<double>(1 + rng.uniform_index(1000));
        const auto hops = static_cast<double>(1 + rng.uniform_index(
                              static_cast<std::size_t>(duration)));
        samples.push_back(hops / duration);
    }
    samples.push_back(0.0);
    samples.push_back(1.0);
    samples.push_back(-3.5);                                     // clamps to bin 0
    samples.push_back(7.25);                                     // clamps to last bin
    samples.push_back(std::numeric_limits<double>::infinity());  // clamps to last bin
    samples.push_back(std::numeric_limits<double>::denorm_min());
    return samples;
}

TEST(HistogramBlockMerge, WeightedAddsMatchRepeatedAdds) {
    Histogram01 weighted(60);
    Histogram01 repeated(60);
    const double x = 1.0 / 3.0;
    weighted.add(x, 1'000'000);
    for (int i = 0; i < 1'000'000; ++i) repeated.add(x);
    expect_identical_histograms(weighted, repeated);
}

// --- OccupancyTally ---------------------------------------------------------

MinimalTrip trip_of(Time duration, Hops hops) {
    return MinimalTrip{0, 1, 1, duration, hops};
}

/// Tallies `trips` into a copy of `start` and adds them one by one to
/// another copy; both must end in the same full state.
void expect_tally_matches_per_trip_adds(const std::vector<MinimalTrip>& trips,
                                        const Histogram01& start) {
    Histogram01 per_trip = start;
    for (const MinimalTrip& trip : trips) per_trip.add(series_occupancy(trip));
    Histogram01 tallied = start;
    {
        OccupancyTally tally(tallied);
        for (const MinimalTrip& trip : trips) tally(trip);
    }
    expect_identical_histograms(tallied, per_trip);
}

TEST(OccupancyTally, MatchesPerTripAddsAtTheTableEdge) {
    const Time edge = OccupancyTally::kMaxTableDuration;
    std::vector<MinimalTrip> trips;
    for (const Time duration : {Time{1}, edge - 1, edge, edge + 1, Time{1000}}) {
        for (const Time hops : {Time{1}, (duration + 1) / 2, duration}) {
            // A few repeats per pair, so table cells count above one.
            for (Time repeat = 0; repeat < 1 + duration % 4; ++repeat) {
                trips.push_back(trip_of(duration, static_cast<Hops>(hops)));
            }
        }
    }
    expect_tally_matches_per_trip_adds(trips, Histogram01(3600));
    expect_tally_matches_per_trip_adds(trips, Histogram01(7));
}

TEST(OccupancyTally, MatchesPerTripAddsWhenNearlyEveryPairIsDistinct) {
    // 50k random pairs with hops <= duration <= 1000: nearly all distinct,
    // the shape of a sparse trace at its finest period.
    Rng rng(2024);
    std::vector<MinimalTrip> trips;
    for (int i = 0; i < 50'000; ++i) {
        const auto duration = static_cast<Time>(1 + rng.uniform_index(1000));
        const auto hops =
            static_cast<Hops>(1 + rng.uniform_index(static_cast<std::size_t>(duration)));
        trips.push_back(trip_of(duration, hops));
    }
    expect_tally_matches_per_trip_adds(trips, Histogram01(3600));
}

TEST(OccupancyTally, AddsToAHistogramThatAlreadyHoldsSamples) {
    Histogram01 start(360);
    for (const double x : occupancy_like_samples(31, 2'000)) start.add(x);
    std::vector<MinimalTrip> trips;
    Rng rng(32);
    for (int i = 0; i < 5'000; ++i) {
        const auto duration = static_cast<Time>(1 + rng.uniform_index(300));
        const auto hops =
            static_cast<Hops>(1 + rng.uniform_index(static_cast<std::size_t>(duration)));
        trips.push_back(trip_of(duration, hops));
    }
    expect_tally_matches_per_trip_adds(trips, start);
}

TEST(OccupancyTally, SecondFlushAddsNothing) {
    Histogram01 tallied(360);
    Histogram01 per_trip(360);
    OccupancyTally tally(tallied);
    for (const MinimalTrip& trip :
         {trip_of(3, 2), trip_of(3, 2), trip_of(40, 7), trip_of(900, 5)}) {
        tally(trip);
        per_trip.add(series_occupancy(trip));
    }
    tally.flush();
    expect_identical_histograms(tallied, per_trip);
    tally.flush();
    expect_identical_histograms(tallied, per_trip);
    // The table counts afresh after a flush.
    tally(trip_of(3, 2));
    tally.flush();
    per_trip.add(series_occupancy(trip_of(3, 2)));
    expect_identical_histograms(tallied, per_trip);
}

TEST(OccupancyTally, RejectsTripsSeriesOccupancyRejects) {
    Histogram01 hist(360);
    OccupancyTally tally(hist);
    for (const MinimalTrip& bad : {trip_of(5, 0), trip_of(5, 6), trip_of(300, 0),
                                   trip_of(300, 301), MinimalTrip{0, 1, 4, 3, 1}}) {
        EXPECT_THROW(series_occupancy(bad), contract_error);
        EXPECT_THROW(tally(bad), contract_error);
    }
    tally.flush();
    EXPECT_TRUE(hist.empty());
}

}  // namespace
}  // namespace natscale

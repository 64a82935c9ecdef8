// Order-independence suite for the exact accumulators: adding a multiset of
// samples in any order, or equal samples as one weighted add, must give the
// same bins, total, mean and stddev bit-for-bit (see stats/exact_sum.hpp).
// That property lets OccupancyTally add each (hops, duration) pair once:
// its flushed histogram must equal per-trip adds in every bit of state.
// ExactSum's one-carry-chain add is checked limb for limb against the
// three rippling adds it replaced.
#include <gtest/gtest.h>

#include <array>
#include <bit>
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

using Limbs = std::array<std::uint64_t, ExactSum::kLimbs>;

/// An add of `count` copies of `x` to `limbs`, written the way ExactSum
/// added before its single carry chain: the shifted product as three
/// pieces, each added by its own rippling loop.  `at` throws if a case
/// carries past the last limb.
Limbs reference_add(Limbs limbs, double x, std::uint64_t count) {
    const auto add_limb = [&limbs](std::size_t index, std::uint64_t piece) {
        if (piece == 0) return;
        while (true) {
            const std::uint64_t before = limbs.at(index);
            limbs[index] = before + piece;
            if (limbs[index] >= before) return;
            piece = 1;
            ++index;
        }
    };
    if (x == 0.0 || count == 0) return limbs;
    const auto bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t raw_exp = bits >> 52;
    const std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t m = raw_exp != 0 ? (mantissa | (std::uint64_t{1} << 52)) : mantissa;
    const std::size_t bitpos = raw_exp != 0 ? raw_exp - 1 : 0;
    const unsigned __int128 prod = static_cast<unsigned __int128>(m) * count;
    const auto lo = static_cast<std::uint64_t>(prod);
    const auto hi = static_cast<std::uint64_t>(prod >> 64);
    const std::size_t limb = bitpos >> 6;
    const unsigned shift = bitpos & 63;
    if (shift == 0) {
        add_limb(limb, lo);
        add_limb(limb + 1, hi);
    } else {
        add_limb(limb, lo << shift);
        add_limb(limb + 1, (lo >> (64 - shift)) | (hi << shift));
        add_limb(limb + 2, hi >> (64 - shift));
    }
    return limbs;
}

/// Bit offset of x's lowest mantissa bit inside its first limb.
unsigned word_shift(double x) {
    const std::uint64_t raw_exp = std::bit_cast<std::uint64_t>(x) >> 52;
    return static_cast<unsigned>((raw_exp != 0 ? raw_exp - 1 : 0) & 63);
}

TEST(ExactSum, OneCarryChainMatchesThreeRipplingAdds) {
    const double denorm_min = std::numeric_limits<double>::denorm_min();
    std::vector<double> xs = {
        denorm_min,
        std::numeric_limits<double>::min(),  // 2^-1022: shift 0
        std::ldexp(1.0, -62),                // shift 0
        std::ldexp(1.75, -63),               // shift 63
        0.5 + std::ldexp(1.0, -53),
        2.5,  // shift 63
        4.0,  // shift 0
        1.0 / 3.0,
        1.0,
        std::numeric_limits<double>::max(),
    };
    Rng rng(29);
    for (int i = 0; i < 200; ++i) {
        const auto exponent = static_cast<int>(rng.uniform_int(-1074, 1000));
        xs.push_back(std::ldexp(1.0 + rng.uniform01(), exponent));
    }
    bool saw_shift_0 = false;
    bool saw_shift_63 = false;
    for (const double x : xs) {
        saw_shift_0 |= word_shift(x) == 0;
        saw_shift_63 |= word_shift(x) == 63;
    }
    ASSERT_TRUE(saw_shift_0 && saw_shift_63);

    const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t counts[] = {1, 2, 3, (std::uint64_t{1} << 32) + 1,
                                    std::uint64_t{1} << 63, max - 1, max};
    for (const double x : xs) {
        for (const std::uint64_t count : counts) {
            // Limbs 0..29 hold random words, often all ones so that carries
            // ripple; 30..35 stay zero, above any carry these adds make.
            Limbs start{};
            for (std::size_t i = 0; i < 30; ++i) {
                start[i] = rng.bernoulli(0.5) ? max : rng.next_u64();
            }
            ExactSum sum = ExactSum::from_limbs(start);
            sum.add(x, count);
            EXPECT_EQ(sum.limbs(), reference_add(start, x, count))
                << "x=" << x << " count=" << count;
        }
    }
}

TEST(ExactSum, CarryRipplesThroughAllOnesLimbs) {
    // count x 1.0 sits at bit 1074, in limbs 16 and 17, the last two of
    // its three-limb chain (15..17).  Limbs 16 up to 21 are all ones, so
    // the chain carries out of limb 17 and ripples up to limb 22.
    Limbs start{};
    for (std::size_t i = 16; i <= 21; ++i) start[i] = std::numeric_limits<std::uint64_t>::max();
    start[22] = 5;
    for (const std::uint64_t count : {std::uint64_t{1}, std::uint64_t{1} << 20,
                                      std::numeric_limits<std::uint64_t>::max()}) {
        ExactSum sum = ExactSum::from_limbs(start);
        sum.add(1.0, count);
        const Limbs expected = reference_add(start, 1.0, count);
        EXPECT_EQ(sum.limbs(), expected) << "count=" << count;
        EXPECT_EQ(sum.limbs()[22], 6u);
        for (std::size_t i = 18; i <= 21; ++i) EXPECT_EQ(sum.limbs()[i], 0u) << "limb " << i;
    }
}

TEST(ExactSum, CarryOutOfTheLastLimbStaysInsideTheArray) {
    // All ones plus 1.0 wraps the whole accumulator: the carry out of limb
    // 35 is dropped, never written past the array (an index check aborts
    // on that under _GLIBCXX_ASSERTIONS).  No histogram moment gets near
    // this; restore_checkpoint refuses such limbs.
    Limbs start;
    start.fill(std::numeric_limits<std::uint64_t>::max());
    ExactSum sum = ExactSum::from_limbs(start);
    sum.add(1.0);
    // 1.0 is 2^52 at bit 1022 = 2^50 at bit 1024 (limb 16): limbs 0..15 stay
    // all ones, limb 16 becomes 2^50 - 1, and 17..35 wrap to zero.
    for (std::size_t i = 0; i < ExactSum::kLimbs; ++i) {
        const std::uint64_t expected = i < 16    ? std::numeric_limits<std::uint64_t>::max()
                                       : i == 16 ? (std::uint64_t{1} << 50) - 1
                                                 : 0;
        EXPECT_EQ(sum.limbs()[i], expected) << "limb " << i;
    }
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

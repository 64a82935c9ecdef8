// Exact, order-independent summation of non-negative doubles.
//
// Floating-point addition is not associative, so a naive `double sum`
// depends on the order and grouping of its adds.  The occupancy histograms
// must not: OccupancyTally (core/occupancy) adds each distinct occupancy
// rate once, weighted by its trip count, and the online engine
// (online/incremental_sweep) meets a period's trips in time-reversed order,
// sync by sync; both must reproduce the per-trip adds of a batch scan
// bit-for-bit (the repo's batch = online invariant).
//
// ExactSum removes the problem at the root: it accumulates the exact value
// of the sum in a Kulisch-style fixed-point superaccumulator — an array of
// 64-bit limbs covering every bit position a non-negative finite double can
// occupy (2^-1074 .. 2^1024) plus headroom for 2^64-fold counts.  Integer
// addition is associative and commutative, so the accumulator state after
// adding a multiset of samples is a unique function of the multiset: any
// order of adds, and any grouping of equal samples into one weighted add,
// yields the identical limbs and therefore the identical rounded `value()`.
//
// Cost: add() is inline and branch-light — decompose the double, one
// 128-bit multiply by the count, split the shifted product into three
// words and add them with one carry chain; only a carry out of the third
// limb ripples further, and never past the last limb.  On 20 M long-trip
// rates (a 4-vCPU AVX-512 Xeon, GCC 12 -O2) one add takes 7.5-7.8 ns and
// Histogram01::add, which makes two, 20 ns — cheap enough for the trips
// OccupancyTally sends straight to the histogram.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/contracts.hpp"

namespace natscale {

class ExactSum {
public:
    /// Adds `count` copies of `x` exactly.
    /// Preconditions: x is finite and non-negative.
    void add(double x, std::uint64_t count = 1);

    /// The accumulated sum rounded to double (deterministic: a pure function
    /// of the exact accumulator state, which itself is a pure function of
    /// the added multiset).  Faithful to within ~1 ulp of the exact value.
    double value() const noexcept;

    bool zero() const noexcept;

    friend bool operator==(const ExactSum& a, const ExactSum& b) noexcept {
        return a.limbs_ == b.limbs_;
    }

    /// Bit 0 of limb 0 weighs 2^-1074 (the smallest subnormal).  The largest
    /// finite double contributes up to bit 2097; a 2^64 count shifts that to
    /// 2161 and carries need a little more — 36 limbs = 2304 bits.
    static constexpr std::size_t kLimbs = 36;

    /// True when the sum is below 2^78: limbs 18 and up, which start at
    /// weight 2^78, are zero.  Histogram01 holds its restored moments to it.
    bool below_2_to_78() const noexcept {
        for (std::size_t i = 18; i < kLimbs; ++i) {
            if (limbs_[i] != 0) return false;
        }
        return true;
    }

    /// The raw accumulator limbs — the complete state, which is a pure
    /// function of the added multiset.  Restoring them verbatim (from_limbs)
    /// reproduces the accumulator bit-for-bit, so checkpointed statistics
    /// resume with their order independence intact (online/checkpoint).
    const std::array<std::uint64_t, kLimbs>& limbs() const noexcept { return limbs_; }

    static ExactSum from_limbs(const std::array<std::uint64_t, kLimbs>& limbs) noexcept {
        ExactSum sum;
        sum.limbs_ = limbs;
        return sum;
    }

private:
    static constexpr int kBias = 1074;  // limb-array bit i weighs 2^(i - kBias)

    std::array<std::uint64_t, kLimbs> limbs_{};
};

inline void ExactSum::add(double x, std::uint64_t count) {
    NATSCALE_EXPECTS(std::isfinite(x) && x >= 0.0);
    if (x == 0.0 || count == 0) return;

    const auto bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t raw_exp = bits >> 52;  // sign bit is 0
    const std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
    // value = m * 2^(e - 1075) for normals (implicit leading bit), and
    // m * 2^-1074 for subnormals; both map to limb-array bit max(e,1) - 1.
    const std::uint64_t m = raw_exp != 0 ? (mantissa | (std::uint64_t{1} << 52)) : mantissa;
    const std::uint64_t bitpos = raw_exp != 0 ? raw_exp - 1 : 0;

    // m * count < 2^117, shifted left by bitpos % 64 into three words.
    // `w >> 1 >> (63 - shift)` is w >> (64 - shift), and 0 at shift 0.
    const unsigned __int128 prod = static_cast<unsigned __int128>(m) * count;
    const auto lo = static_cast<std::uint64_t>(prod);
    const auto hi = static_cast<std::uint64_t>(prod >> 64);
    const auto shift = static_cast<unsigned>(bitpos & 63);
    const std::uint64_t w0 = lo << shift;
    const std::uint64_t w1 = (hi << shift) | (lo >> 1 >> (63 - shift));
    const std::uint64_t w2 = hi >> 1 >> (63 - shift);

    // bitpos <= 2045, so the three limbs end at limb 33 at most.
    auto limb = static_cast<std::size_t>(bitpos >> 6);
    unsigned __int128 acc = static_cast<unsigned __int128>(limbs_[limb]) + w0;
    limbs_[limb] = static_cast<std::uint64_t>(acc);
    acc = (acc >> 64) + limbs_[limb + 1] + w1;
    limbs_[limb + 1] = static_cast<std::uint64_t>(acc);
    acc = (acc >> 64) + limbs_[limb + 2] + w2;
    limbs_[limb + 2] = static_cast<std::uint64_t>(acc);
    if ((acc >> 64) == 0) return;
    // Ripple the carry up to the last limb; no moment comes near it.
    for (limb += 3; limb < kLimbs && ++limbs_[limb] == 0; ++limb) {
    }
}

}  // namespace natscale

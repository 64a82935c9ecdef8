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
// Cost: add() is ~a dozen integer operations (decompose the double, one
// 128-bit multiply by the count, shifted add into at most three limbs plus
// rare carry propagation) — cheap enough for the per-minimal-trip hot path.
#pragma once

#include <array>
#include <cstdint>

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

}  // namespace natscale

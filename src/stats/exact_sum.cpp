#include "stats/exact_sum.hpp"

#include <bit>
#include <cmath>

#include "util/contracts.hpp"

namespace natscale {

namespace {

/// Adds `piece` into limbs_[index] and ripples the carry upward.
inline void add_limb(std::array<std::uint64_t, 36>& limbs, std::size_t index,
                     std::uint64_t piece) noexcept {
    if (piece == 0) return;
    while (true) {
        const std::uint64_t before = limbs[index];
        limbs[index] = before + piece;
        if (limbs[index] >= before) return;  // no carry
        piece = 1;
        ++index;
    }
}

}  // namespace

void ExactSum::add(double x, std::uint64_t count) {
    NATSCALE_EXPECTS(std::isfinite(x) && x >= 0.0);
    if (x == 0.0 || count == 0) return;

    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t raw_exp = bits >> 52;                     // sign bit is 0
    const std::uint64_t mantissa = bits & ((std::uint64_t{1} << 52) - 1);
    // value = m * 2^(e - 1075) for normals (implicit leading bit), and
    // m * 2^-1074 for subnormals; both map to limb-array bit max(e,1) - 1.
    const std::uint64_t m = raw_exp != 0 ? (mantissa | (std::uint64_t{1} << 52)) : mantissa;
    const std::size_t bitpos = static_cast<std::size_t>(raw_exp != 0 ? raw_exp - 1 : 0);

    const unsigned __int128 prod = static_cast<unsigned __int128>(m) * count;  // <= 2^117
    const std::uint64_t lo = static_cast<std::uint64_t>(prod);
    const std::uint64_t hi = static_cast<std::uint64_t>(prod >> 64);

    const std::size_t limb = bitpos >> 6;
    const unsigned shift = static_cast<unsigned>(bitpos & 63);
    if (shift == 0) {
        add_limb(limbs_, limb, lo);
        add_limb(limbs_, limb + 1, hi);
    } else {
        add_limb(limbs_, limb, lo << shift);
        add_limb(limbs_, limb + 1, (lo >> (64 - shift)) | (hi << shift));
        add_limb(limbs_, limb + 2, hi >> (64 - shift));
    }
}

double ExactSum::value() const noexcept {
    std::size_t top = kLimbs;
    while (top > 0 && limbs_[top - 1] == 0) --top;
    if (top == 0) return 0.0;
    // The top three limbs hold 129..192 significant bits — more than enough
    // for a faithfully rounded double.  Largest-first accumulation keeps the
    // rounding of the lower terms inside the final ulp.
    double result = 0.0;
    for (std::size_t i = top; i-- > 0 && i + 3 >= top;) {
        result += std::ldexp(static_cast<double>(limbs_[i]),
                             static_cast<int>(i) * 64 - kBias);
    }
    return result;
}

bool ExactSum::zero() const noexcept {
    for (const std::uint64_t limb : limbs_) {
        if (limb != 0) return false;
    }
    return true;
}

}  // namespace natscale

#include "stats/exact_sum.hpp"

namespace natscale {

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

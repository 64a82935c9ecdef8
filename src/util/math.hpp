// Small numeric helpers used throughout the library: descriptive statistics,
// grid construction for the aggregation-period sweeps, and numerically careful
// summation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace natscale {

/// Kahan-compensated accumulator.  The distance statistics of Fig. 2 sum up
/// to ~1e13 terms of widely varying magnitude; naive summation would lose
/// several digits.
class KahanSum {
public:
    void add(double x) noexcept;
    double value() const noexcept { return sum_; }
    KahanSum& operator+=(double x) noexcept {
        add(x);
        return *this;
    }

private:
    double sum_ = 0.0;
    double comp_ = 0.0;
};

/// Arithmetic mean; 0 for an empty range.
double mean(std::span<const double> xs) noexcept;

/// Population variance (divides by n); 0 for fewer than 1 element.
double population_variance(std::span<const double> xs) noexcept;

/// Population standard deviation.
double population_stddev(std::span<const double> xs) noexcept;

/// `count` evenly spaced values over [lo, hi] inclusive.  count >= 2.
std::vector<double> linspace(double lo, double hi, std::size_t count);

/// `count` geometrically spaced values over [lo, hi] inclusive.
/// Preconditions: 0 < lo <= hi, count >= 2.
std::vector<double> geomspace(double lo, double hi, std::size_t count);

/// Integer ceiling division for positive operands.
constexpr std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
    return (a + b - 1) / b;
}

/// static_cast<std::size_t>(std::ceil(x)) for 0 <= x < 2^64, without the
/// libm call a baseline x86-64 build makes for std::ceil: the truncation,
/// stepped up unless x was already an integer.
constexpr std::size_t ceil_to_size(double x) {
    const auto truncated = static_cast<std::size_t>(x);
    return static_cast<double>(truncated) < x ? truncated + 1 : truncated;
}

/// Sum of the arithmetic progression a + (a+1) + ... + b, 0 if b < a.
/// Used by the distance accumulator to integrate d_time over stretches of
/// start windows in O(1).
constexpr double arithmetic_series(std::int64_t a, std::int64_t b) {
    if (b < a) return 0.0;
    const double n = static_cast<double>(b - a + 1);
    return n * (static_cast<double>(a) + static_cast<double>(b)) / 2.0;
}

}  // namespace natscale

// The per-metric histogram scorers that compute_all_metrics replaced, kept
// as the reference its one pass is checked against bit for bit.  M-K and
// CRE walk the survival vector Histogram01::survival_at_edges() builds,
// calling std::log on every bin; Shannon fills a slot vector through
// std::ceil.  These are the loops the library ran before the five metrics
// shared one pass.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/histogram01.hpp"
#include "stats/uniformity.hpp"
#include "util/contracts.hpp"

namespace natscale::testing {

inline double mk_distance_to_uniform(const Histogram01& hist) {
    if (hist.empty()) return 0.5;
    const auto surv = hist.survival_at_edges();
    const std::size_t bins = hist.num_bins();
    double area = 0.0;
    for (std::size_t j = 0; j < bins; ++j) {
        area += integrate_abs_deviation(static_cast<double>(j) / static_cast<double>(bins),
                                        static_cast<double>(j + 1) / static_cast<double>(bins),
                                        surv[j]);
    }
    return area;
}

inline double mk_proximity(const Histogram01& hist) { return 0.5 - mk_distance_to_uniform(hist); }

inline double variation_coefficient(const Histogram01& hist) {
    const double mu = hist.mean();
    if (mu == 0.0) return 0.0;
    return hist.population_stddev() / mu;
}

inline double shannon_entropy(const Histogram01& hist, std::size_t slots) {
    NATSCALE_EXPECTS(slots >= 1);
    const std::size_t bins = hist.num_bins();
    std::vector<std::uint64_t> slot_counts(slots, 0);
    for (std::size_t j = 0; j < bins; ++j) {
        // The mass of bin j sits at its right edge (j+1)/bins.
        const double x = static_cast<double>(j + 1) / static_cast<double>(bins);
        std::size_t idx = static_cast<std::size_t>(std::ceil(x * static_cast<double>(slots))) - 1;
        if (idx >= slots) idx = slots - 1;
        slot_counts[idx] += hist.counts()[j];
    }
    if (hist.total() == 0) return 0.0;
    double h = 0.0;
    for (const std::uint64_t c : slot_counts) {
        if (c == 0) continue;
        const double p = static_cast<double>(c) / static_cast<double>(hist.total());
        h -= p * std::log(p);
    }
    return h;
}

inline double cumulative_residual_entropy(const Histogram01& hist) {
    if (hist.empty()) return 0.0;
    const auto surv = hist.survival_at_edges();
    const std::size_t bins = hist.num_bins();
    double entropy = 0.0;
    for (std::size_t j = 0; j < bins; ++j) {
        const double a = static_cast<double>(j) / static_cast<double>(bins);
        const double b = static_cast<double>(j + 1) / static_cast<double>(bins);
        const double c = surv[j];
        if (c > 0.0 && c < 1.0) entropy -= c * std::log(c) * (b - a);
    }
    return entropy;
}

}  // namespace natscale::testing

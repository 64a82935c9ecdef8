#include "stats/uniformity.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace natscale {

std::string metric_name(UniformityMetric metric) {
    switch (metric) {
        case UniformityMetric::mk_proximity: return "M-K proximity";
        case UniformityMetric::std_deviation: return "standard deviation";
        case UniformityMetric::variation_coefficient: return "variation coefficient";
        case UniformityMetric::shannon_entropy: return "Shannon entropy";
        case UniformityMetric::cre: return "cumulative residual entropy";
    }
    return "unknown";
}

namespace {

/// integrate_abs_deviation's integral, without its precondition checks:
/// the one-pass scorer calls it once per bin, with a, b and c in range.
double abs_deviation_area(double a, double b, double c) {
    // |c - (1 - lambda)| = |lambda - x0| with crossing point x0 = 1 - c.
    const double x0 = 1.0 - c;
    auto left_part = [&](double lo, double hi) {  // lambda <= x0: x0 - lambda
        return x0 * (hi - lo) - (hi * hi - lo * lo) / 2.0;
    };
    auto right_part = [&](double lo, double hi) {  // lambda >= x0: lambda - x0
        return (hi * hi - lo * lo) / 2.0 - x0 * (hi - lo);
    };
    if (b <= x0) return left_part(a, b);
    if (a >= x0) return right_part(a, b);
    return left_part(a, x0) + right_part(x0, b);
}

/// Iterates the pieces of a step-function ICD: calls f(a, b, c) for every
/// maximal interval [a, b) on which P(X > lambda) == c, covering [0, 1].
template <typename F>
void for_each_icd_piece(const EmpiricalDistribution& dist, F&& f) {
    const auto samples = dist.sorted_samples();
    const double m = static_cast<double>(samples.size());
    double prev = 0.0;
    std::size_t i = 0;
    while (i < samples.size()) {
        const double value = samples[i];
        std::size_t j = i;
        while (j < samples.size() && samples[j] == value) ++j;
        if (value > prev) {
            // On [prev, value): all samples from index i on are > lambda.
            f(prev, value, static_cast<double>(samples.size() - i) / m);
            prev = value;
        }
        i = j;
    }
    if (prev < 1.0) f(prev, 1.0, 0.0);
}

/// p ln p for a slot holding `count` of `total` samples, 0 for an empty
/// slot; the Shannon entropy subtracts one per slot, in slot order.
double shannon_term(std::uint64_t count, double total) {
    if (count == 0) return 0.0;
    const double p = static_cast<double>(count) / total;
    return p * std::log(p);
}

}  // namespace

double integrate_abs_deviation(double a, double b, double c) {
    NATSCALE_EXPECTS(0.0 <= a && a <= b && b <= 1.0);
    NATSCALE_EXPECTS(0.0 <= c && c <= 1.0);
    return abs_deviation_area(a, b, c);
}

double mk_distance_to_uniform(const EmpiricalDistribution& dist) {
    if (dist.empty()) return 0.5;  // empty "distribution": maximally far
    double area = 0.0;
    for_each_icd_piece(dist, [&](double a, double b, double c) {
        area += integrate_abs_deviation(a, b, c);
    });
    return area;
}

double mk_proximity(const EmpiricalDistribution& dist) {
    return 0.5 - mk_distance_to_uniform(dist);
}

double variation_coefficient(const EmpiricalDistribution& dist) {
    const double mu = dist.mean();
    if (mu == 0.0) return 0.0;
    return dist.population_stddev() / mu;
}

double shannon_entropy(const EmpiricalDistribution& dist, std::size_t slots) {
    NATSCALE_EXPECTS(slots >= 1);
    std::vector<std::uint64_t> counts(slots, 0);
    for (double x : dist.sorted_samples()) {
        // Slot j covers (j/slots, (j+1)/slots]; values <= 0 go to slot 0.
        std::size_t idx = x <= 0.0 ? 0 : ceil_to_size(x * static_cast<double>(slots)) - 1;
        if (idx >= slots) idx = slots - 1;
        ++counts[idx];
    }
    if (dist.empty()) return 0.0;
    const auto total = static_cast<double>(dist.size());
    double h = 0.0;
    for (const std::uint64_t c : counts) h -= shannon_term(c, total);
    return h;
}

double cumulative_residual_entropy(const EmpiricalDistribution& dist) {
    if (dist.empty()) return 0.0;
    double entropy = 0.0;
    for_each_icd_piece(dist, [&](double a, double b, double c) {
        if (c > 0.0 && c < 1.0) entropy -= c * std::log(c) * (b - a);
    });
    return entropy;
}

UniformityScores compute_all_metrics(const Histogram01& hist, std::size_t shannon_slots) {
    NATSCALE_EXPECTS(shannon_slots >= 1);
    UniformityScores scores;
    scores.std_deviation = hist.population_stddev();
    const double mu = hist.mean();
    scores.variation_coefficient = mu == 0.0 ? 0.0 : scores.std_deviation / mu;
    // Empty: M-K distance 1/2 (proximity 0), both entropies 0.
    if (hist.empty()) return scores;

    // One pass over the bins.  Bin j spans [a, b) = [j/B, (j+1)/B) of the
    // ICD at height c = P(X > j/B) = above / total, and its mass sits at
    // b, in Shannon slot ceil(b * slots) - 1.  Every sum takes the same
    // terms in the same order as a per-metric loop over
    // Histogram01::survival_at_edges(), so each score keeps its bits.
    const std::vector<std::uint64_t>& counts = hist.counts();
    const auto bins = static_cast<double>(counts.size());
    const auto slots = static_cast<double>(shannon_slots);
    const auto total = static_cast<double>(hist.total());
    std::uint64_t above = hist.total();
    double c = 1.0;
    double c_log_c = 0.0;  // c ln c, recomputed only where c changes
    double area = 0.0;
    double cre = 0.0;
    double shannon = 0.0;
    // Slot indices never decrease with j, so each slot is closed when the
    // pass leaves it.
    std::size_t slot = 0;
    std::uint64_t slot_count = 0;
    double a = 0.0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
        const double b = static_cast<double>(j + 1) / bins;
        area += abs_deviation_area(a, b, c);
        if (c > 0.0 && c < 1.0) cre -= c_log_c * (b - a);
        const std::size_t in_slot = std::min(ceil_to_size(b * slots) - 1, shannon_slots - 1);
        if (in_slot != slot) {
            shannon -= shannon_term(slot_count, total);
            slot = in_slot;
            slot_count = 0;
        }
        const std::uint64_t count = counts[j];
        if (count != 0) {
            slot_count += count;
            above -= count;
            c = static_cast<double>(above) / total;
            c_log_c = above != 0 ? c * std::log(c) : 0.0;
        }
        a = b;
    }
    shannon -= shannon_term(slot_count, total);
    scores.mk_proximity = 0.5 - area;
    scores.shannon_entropy = shannon;
    scores.cre = cre;
    return scores;
}

double score_of(const UniformityScores& scores, UniformityMetric metric) {
    switch (metric) {
        case UniformityMetric::mk_proximity: return scores.mk_proximity;
        case UniformityMetric::std_deviation: return scores.std_deviation;
        case UniformityMetric::variation_coefficient: return scores.variation_coefficient;
        case UniformityMetric::shannon_entropy: return scores.shannon_entropy;
        case UniformityMetric::cre: return scores.cre;
    }
    return 0.0;
}

}  // namespace natscale

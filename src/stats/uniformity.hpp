// Uniformity metrics over occupancy-rate distributions (paper Sections 4, 7).
//
// The occupancy method selects the aggregation period whose distribution of
// occupancy rates is maximally spread over [0, 1].  The paper's reference
// metric is the Monge-Kantorovich (M-K) proximity to the uniform density; it
// also evaluates standard deviation, variation coefficient, Shannon entropy
// over k slots, and cumulative residual entropy (CRE), all implemented here
// exactly (from stored samples), and all five at once from a streaming
// histogram (compute_all_metrics, the scorer of every Delta).
//
// All five are maximized by the uniform density on [0, 1]:
//   M-K proximity  max 1/2       (distance 0)
//   std deviation  max 1/sqrt(12) among unimodal spreads; uniform = 0.2887
//   Shannon(k)     max ln k
//   CRE            max 1/4
// (the variation coefficient is kept for completeness; the paper shows it is
// unsuitable because it over-rewards small means).
#pragma once

#include <string>

#include "stats/empirical_distribution.hpp"
#include "stats/histogram01.hpp"

namespace natscale {

enum class UniformityMetric {
    mk_proximity,          // 1/2 - M-K distance to uniform density (paper default)
    std_deviation,         // population standard deviation
    variation_coefficient, // stddev / mean
    shannon_entropy,       // -sum p ln p over k equal slots
    cre,                   // cumulative residual entropy
};

/// Human-readable metric name, e.g. "M-K proximity".
std::string metric_name(UniformityMetric metric);

/// Integral over [a, b] of |lambda - (1 - c)|: the area between a constant
/// ICD piece of height c and the uniform ICD  y = 1 - lambda.
/// Preconditions: 0 <= a <= b <= 1 and 0 <= c <= 1.
double integrate_abs_deviation(double a, double b, double c);

// --- Exact metrics from stored samples ------------------------------------

/// M-K distance to the uniform density: integral over [0,1] of
/// |P(X > lambda) - (1 - lambda)|.  In [0, 1/2]; 0 iff the ICD is exactly
/// the uniform one.
double mk_distance_to_uniform(const EmpiricalDistribution& dist);

/// 1/2 - mk_distance_to_uniform: the quantity plotted in Fig. 3/5.
double mk_proximity(const EmpiricalDistribution& dist);

double variation_coefficient(const EmpiricalDistribution& dist);

/// Shannon entropy of the distribution discretized into `slots` equal bins
/// of [0, 1] (natural log).  Precondition: slots >= 1.
double shannon_entropy(const EmpiricalDistribution& dist, std::size_t slots);

/// Cumulative residual entropy: -integral of P(X>l) * ln P(X>l).
double cumulative_residual_entropy(const EmpiricalDistribution& dist);

// --- From a histogram (error O(1/num_bins)) --------------------------------

/// All five metrics of one distribution, in the layout of the paper's Fig. 7.
struct UniformityScores {
    double mk_proximity = 0.0;
    double std_deviation = 0.0;
    double variation_coefficient = 0.0;
    double shannon_entropy = 0.0;  // with `shannon_slots` slots
    double cre = 0.0;
};

/// The five metrics of a histogram's binned ICD (bin j is the piece
/// [j/B, (j+1)/B) at height c = P(X > j/B), its mass sitting at (j+1)/B),
/// in one pass over the bins with no per-bin vector: M-K adds
/// integrate_abs_deviation per bin, CRE subtracts c ln c (b - a) and
/// recomputes c ln c only after a non-empty bin, and Shannon closes each
/// slot as the pass leaves it.  Every sum takes its terms in bin order, so
/// the scores equal a per-metric loop over
/// Histogram01::survival_at_edges() bit for bit
/// (tests/testing/reference_uniformity.hpp keeps those loops).  The
/// standard deviation and variation coefficient come from the histogram's
/// exact moments, not its bins.  An empty histogram scores 0 on every
/// metric (M-K distance 1/2).  Precondition: shannon_slots >= 1.
UniformityScores compute_all_metrics(const Histogram01& hist, std::size_t shannon_slots = 10);

/// Extracts a single metric value from precomputed scores.
double score_of(const UniformityScores& scores, UniformityMetric metric);

}  // namespace natscale

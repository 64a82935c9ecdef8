// Streaming histogram of occupancy rates on (0, 1].
//
// The occupancy method evaluates the distribution of occupancy rates of all
// minimal trips of every aggregated series; for real datasets this means up
// to hundreds of millions of trips per Delta, which must not be stored.
// Histogram01 accumulates counts in B equal bins together with the exact
// first two moments; the uniformity metrics are then computed from the
// binned inverse cumulative distribution with error O(1/B).  Those trips
// carry far fewer distinct occupancy rates, so the scans tally them by
// (hops, duration) first (core/occupancy's OccupancyTally) and add each
// distinct rate once, through add(x, count).
//
// Bin j (0-based) represents the half-open interval (j/B, (j+1)/B]; all mass
// of a bin is treated as sitting at its right edge, which is exact for
// occupancy rates of the form hops/duration == 1 and pessimistic by at most
// one bin width elsewhere.  The default B = 3600 is divisible by the Shannon
// slot counts used in the paper's Section 7 (5, 10, 20, 100).
//
// Accumulation is order-independent: the bins are integers and the moments
// are kept in exact fixed-point superaccumulators (stats/exact_sum.hpp), so
// adding a multiset of samples in ANY order — or adding k equal samples as
// one add(x, k) — reproduces the bins, total, mean and stddev bit-for-bit.
// This is what lets OccupancyTally add each distinct rate once and the
// online engine add a period's trips in time-reversed order while staying
// bit-identical to the per-trip adds of a batch scan.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "stats/exact_sum.hpp"

namespace natscale {

class Histogram01 {
public:
    static constexpr std::size_t kDefaultBins = 3600;

    explicit Histogram01(std::size_t num_bins = kDefaultBins);

    /// Adds a sample; values outside (0, 1] — including +/-infinity — are
    /// clamped to the end bins (and to 0/1 in the moment accumulators); NaN
    /// samples are dropped (they carry no information, and unguarded they
    /// would index out of bounds).
    void add(double x) noexcept;

    /// Adds `count` samples of the same value.
    void add(double x, std::uint64_t count) noexcept;

    std::size_t num_bins() const noexcept { return counts_.size(); }
    std::uint64_t total() const noexcept { return total_; }
    bool empty() const noexcept { return total_ == 0; }

    double mean() const noexcept;
    double population_stddev() const noexcept;

    const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

    /// The exact moment accumulators (Sigma x and Sigma x^2 of the clamped
    /// samples) — together with counts() the histogram's complete state,
    /// exposed for checkpoint serialization (online/checkpoint).
    const ExactSum& moment_sum() const noexcept { return sum_; }
    const ExactSum& moment_sum_sq() const noexcept { return sum_sq_; }

    /// Rebuilds a histogram from state previously read back through
    /// counts() / total() / moment_sum() / moment_sum_sq(); the result is
    /// bit-identical to the accumulator it was read from.
    /// Precondition: invalid_state(...) is nullptr.
    static Histogram01 restore(std::vector<std::uint64_t> counts, std::uint64_t total,
                               ExactSum sum, ExactSum sum_sq);

    /// Why the four parts cannot be a histogram's state, or nullptr when
    /// they can: the counts must be non-empty and sum to total without
    /// wrapping, and each moment, a sum of at most 2^64 - 1 samples in
    /// [0, 1], must stay below 2^64, so no limb from 2^78 up is set
    /// (ExactSum::below_2_to_78).  State that fails would score a survival
    /// above 1 or let a later add carry past the last limb.
    static const char* invalid_state(const std::vector<std::uint64_t>& counts,
                                     std::uint64_t total, const ExactSum& sum,
                                     const ExactSum& sum_sq) noexcept;

    /// P(X > j/B) for j = 0..B: survival function at all bin edges.
    std::vector<double> survival_at_edges() const;

    /// The binned ICD as a polyline (lambda, P(X > lambda)), skipping runs of
    /// empty bins; suitable for plotting Fig. 3/4.
    std::vector<std::pair<double, double>> icd_points() const;

private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    ExactSum sum_;     // exact Sigma x   (clamped samples, so x in [0, 1])
    ExactSum sum_sq_;  // exact Sigma x^2
};

}  // namespace natscale

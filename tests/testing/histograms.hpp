// Shared full-state histogram comparator: two Histogram01 are the same when
// their bins, total and both ExactSum moment accumulators match limb for
// limb — the complete state online checkpoints serialize — and so do the
// mean and stddev derived from them.
#pragma once

#include <gtest/gtest.h>

#include "stats/histogram01.hpp"

namespace natscale::testing {

inline void expect_identical_histograms(const Histogram01& a, const Histogram01& b) {
    ASSERT_EQ(a.num_bins(), b.num_bins());
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.counts(), b.counts());
    EXPECT_TRUE(a.moment_sum() == b.moment_sum());
    EXPECT_TRUE(a.moment_sum_sq() == b.moment_sum_sq());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.population_stddev(), b.population_stddev());
}

}  // namespace natscale::testing

// Two-mode synthetic networks (paper Section 6, Fig. 6 right).
//
// "Built by m alternations of one period of high activity and one period of
// low activity, which are time-uniform networks with parameters N1, T1 and
// N2, T2 respectively.  N1, N2 and the whole length T = m (T1 + T2) of study
// are fixed and we vary the ratio between T1 and T2."
//
// N1 and N2 parameterize the two *activity rates*: a pair receives on
// average N1 * (T1 / (T1+T2)) links per high period (so that a pure
// high-activity stream, rho = 0, carries N1 links per pair per cycle) and
// N2 * (T2 / (T1+T2)) per low period.  Holding the rates fixed while the
// ratio T1:T2 varies is what produces the paper's plateau: the high-activity
// portions keep the same instantaneous density for every rho < 1.
//
// rho = T2 / (T1 + T2) is the percentage of low-activity time.  rho = 0
// degenerates to a pure high-activity stream, rho = 1 to a pure low-activity
// one.  Per-period link counts are Poisson with the stated means.
#pragma once

#include <cstdint>

#include "linkstream/link_stream.hpp"
#include "util/types.hpp"

namespace natscale {

struct TwoModeSpec {
    NodeId num_nodes = 100;
    std::size_t alternations = 10;      // m
    std::size_t links_high = 12;        // N1: links per pair per cycle at rho = 0
    std::size_t links_low = 1;          // N2: links per pair per cycle at rho = 1
    Time period_end = 100'000;          // T = m * (T1 + T2)
    double low_activity_share = 0.5;    // rho = T2 / (T1 + T2), in [0, 1]
};

namespace detail {
/// The implementation behind the registry's "two_mode" model
/// (gen/models_paper.cpp); callers generate through
/// gen::generate_stream("two_mode:n=...,low_share=...").  Deterministic for
/// a fixed (spec, seed).  Undirected.
LinkStream two_mode_stream_impl(const TwoModeSpec& spec, std::uint64_t seed);
}  // namespace detail

}  // namespace natscale

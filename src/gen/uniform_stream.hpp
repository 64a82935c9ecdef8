// Time-uniform synthetic networks (paper Section 6, Fig. 6 left).
//
// "Generated by assigning N links (N << T) to each pair of the n nodes of
// the network and uniformly randomly choosing each of their timestamps
// between 0 and T."  For these streams, the paper shows the saturation scale
// is proportional to the mean inter-contact time T / (N (n-1)).
#pragma once

#include <cstdint>

#include "linkstream/link_stream.hpp"
#include "util/types.hpp"

namespace natscale {

struct UniformStreamSpec {
    NodeId num_nodes = 100;
    std::size_t links_per_pair = 10;  // N
    Time period_end = 100'000;        // T
};

namespace detail {
/// The implementation behind the registry's "uniform" model
/// (gen/models_paper.cpp); callers generate through
/// gen::generate_stream("uniform:n=...,links=...,T=...").  Deterministic
/// for a fixed (spec, seed).  Undirected.
LinkStream uniform_stream_impl(const UniformStreamSpec& spec, std::uint64_t seed);
}  // namespace detail

/// Mean inter-contact time of a node, T / (N (n-1)), in ticks (the x-axis of
/// Fig. 6 left).
double uniform_mean_intercontact(const UniformStreamSpec& spec);

}  // namespace natscale

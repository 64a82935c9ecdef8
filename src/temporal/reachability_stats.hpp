// Reachability censuses: how much of the network a diffusion starting
// anywhere can cover — the quantity aggregation silently shrinks.
//
// A temporal path of an aggregated series always embeds a temporal path of
// the original stream (each hop's window contains a matching event at a
// strictly later time than the previous hop's), so for every ordered pair:
//     reachable in G_Delta  ==>  reachable in L,
// and the deficit counts the propagation routes destroyed by aggregation.
// These helpers drive the epidemic example and give downstream users a
// direct, interpretable alteration measure next to Section 8's two.
#pragma once

#include <cstdint>
#include <vector>

#include "linkstream/graph_series.hpp"
#include "linkstream/link_stream.hpp"
#include "util/types.hpp"

namespace natscale {

struct ReachabilityCensus {
    /// Ordered pairs (u, v), u != v, with a temporal path u -> v.
    std::uint64_t reachable_pairs = 0;
    /// Outbreak size per source: number of nodes reachable from each u.
    std::vector<std::uint32_t> out_reach;
    /// Largest outbreak and its patient zero.
    std::uint32_t max_out_reach = 0;
    NodeId max_source = 0;
};

/// Census over the aggregated series (departures from window 1).
ReachabilityCensus reachability_census(const GraphSeries& series);

/// Census over the raw stream (ground truth): the census of its Delta = 1
/// series, whose windows order the stream's timestamps one-to-one.
ReachabilityCensus reachability_census(const LinkStream& stream);

/// Fraction of the stream's reachable pairs (`truth`, the census of the
/// stream) that survive in `aggregated` (the census of one of its
/// aggregated series), in [0, 1]; 1 when the stream has no reachable pairs.
/// Precondition: aggregated.reachable_pairs <= truth.reachable_pairs.
double reachable_pairs_retention(const ReachabilityCensus& truth,
                                 const ReachabilityCensus& aggregated);

}  // namespace natscale

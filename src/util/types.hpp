// Fundamental value types shared across the natscale library.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

namespace natscale {

/// Dense node identifier in [0, n).  Streams loaded from files with sparse or
/// string identifiers are relabelled to this dense range (see linkstream/io).
using NodeId = std::uint32_t;

/// An edge as an ordered pair of endpoints.  For undirected graphs the
/// canonical storage form is u < v.
using Edge = std::pair<NodeId, NodeId>;

/// Timestamp in integer ticks.  One tick is the resolution of the stream
/// (1 second for all datasets in the paper).  Continuous-time streams are
/// handled by choosing a tick fine enough to keep distinct timestamps
/// distinct; the method itself is resolution-agnostic (paper, footnote 1).
using Time = std::int64_t;

/// 1-based index of an aggregation window (a snapshot in the graph series).
using WindowIndex = std::int64_t;

/// Number of edges of a temporal path ("hops(P)" in the paper).
using Hops = std::int32_t;

/// Sentinel for "no temporal path exists" (d_time = +infinity in the paper).
inline constexpr Time kInfiniteTime = std::numeric_limits<Time>::max();

/// Sentinel hop count paired with kInfiniteTime.
inline constexpr Hops kInfiniteHops = std::numeric_limits<Hops>::max();

}  // namespace natscale

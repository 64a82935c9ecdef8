// Per-pair store of the minimal trips of a raw link stream, with interval
// queries: the substrate of the elongation-factor validation (paper
// Section 8, Definition 8, Fig. 8 right).
//
// For a fixed ordered pair (u, v), minimal trips form a staircase: both
// departure times and arrival times are strictly increasing (two minimal
// trips cannot be nested).  The store keeps each pair's trips sorted by
// departure, so "minimum duration among trips inside the absolute window
// [A, B]" is a binary search plus a short scan.  Its times are timestamps:
// it scans the stream's Delta = 1 series and translates each window k back
// to t = k - 1 (the kernels emit window indices only).
//
// Real traces can hold tens of millions of stream minimal trips; the store
// therefore supports deterministic pair sampling (keeps_pair below: whole
// pairs kept or dropped), which keeps the elongation mean unbiased while
// bounding memory.  The reachability kernels emit every trip; the store,
// count_trips and the series side of the elongation validation each filter
// with the same predicate.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linkstream/link_stream.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace natscale {

/// Deterministic pair sampling: ordered pair (u, v) of an n-node stream is
/// kept iff hash64(u * n + v) % divisor == 0; a divisor of 1 keeps every
/// pair.  Whole pairs are kept or dropped, so every kept pair keeps its
/// whole minimal-trip staircase.
inline bool keeps_pair(NodeId n, NodeId u, NodeId v, std::uint64_t divisor) {
    return divisor <= 1 || hash64(static_cast<std::uint64_t>(u) * n + v) % divisor == 0;
}

class StreamTripStore {
public:
    struct Options {
        /// Keep ordered pair (u, v) iff keeps_pair(n, u, v, divisor); the
        /// series side of the elongation validation filters with the same
        /// divisor, so both sides see the same pairs.
        std::uint64_t pair_sample_divisor = 1;
    };

    /// Scans the stream's Delta = 1 series and stores its minimal trips,
    /// windows [k_dep, k_arr] as timestamps [k_dep - 1, k_arr - 1].
    StreamTripStore(const LinkStream& stream, const Options& options);
    explicit StreamTripStore(const LinkStream& stream) : StreamTripStore(stream, Options{}) {}

    /// Total number of stored trips.
    std::size_t size() const noexcept { return deps_.size(); }

    std::uint64_t pair_sample_divisor() const noexcept { return divisor_; }

    /// Minimum duration (arr - dep, in ticks) among stored minimal trips of
    /// (u, v) with dep >= window_begin and arr <= window_end; nullopt when
    /// none exists.
    std::optional<Time> min_duration_within(NodeId u, NodeId v, Time window_begin,
                                            Time window_end) const;

    /// All stored trips of a pair as parallel (dep, arr) spans, sorted by
    /// departure; for tests.
    std::pair<std::span<const Time>, std::span<const Time>> trips_of(NodeId u, NodeId v) const;

    /// Counts the stream's minimal trips without storing them, honouring the
    /// same sampling.  Used to pick a divisor that fits a memory budget.
    static std::uint64_t count_trips(const LinkStream& stream,
                                     std::uint64_t pair_sample_divisor = 1);

private:
    struct PairRange {
        std::uint64_t key;  // u * n + v
        std::uint32_t begin;
        std::uint32_t end;
    };

    const PairRange* find_pair(std::uint64_t key) const;

    NodeId n_ = 0;
    std::uint64_t divisor_ = 1;
    std::vector<PairRange> index_;  // sorted by key
    std::vector<Time> deps_;        // trips grouped by pair, dep ascending
    std::vector<Time> arrs_;
};

}  // namespace natscale

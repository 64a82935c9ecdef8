// Activity segmentation: the paper's second perspective (Section 9).
//
// The occupancy method returns one aggregation scale for the whole stream;
// on temporally heterogeneous streams (day/night, bursts) the highly active
// parts — "likely to contain a valuable information for the whole dynamics"
// — may still be smoothed out when the low-activity share is large.  The
// paper proposes to "separate the high activity periods from the lower
// activity periods and to determine an appropriate aggregation scale for
// each of these parts independently", then either aggregate everything at
// the smallest scale or aggregate each part with its own window.
//
// This module implements that proposal:
//   1. the period of study is probed with coarse bins and the bin rates are
//      split into two regimes by Otsu's criterion (maximum between-class
//      variance) — with a bimodality guard so homogeneous streams stay one
//      regime;
//   2. the events of each regime are compacted into a contiguous sub-stream
//      (segment gaps removed, so the method sees each regime's own density);
//   3. the occupancy method runs per regime, yielding gamma_high/gamma_low
//      and the safe recommendation min(gamma_high, gamma_low).
#pragma once

#include <vector>

#include "core/saturation.hpp"
#include "linkstream/link_stream.hpp"
#include "util/types.hpp"

namespace natscale {

/// One maximal run of probe bins classified into the same activity regime.
struct ActivitySegment {
    Time begin = 0;
    Time end = 0;              // exclusive
    bool high_activity = false;
    double events_per_tick = 0.0;
};

struct SegmentationOptions {
    /// Number of equal probe bins over [0, T).  Finer bins track shorter
    /// bursts but are noisier; ~10 bins per expected activity period works.
    std::size_t probe_bins = 200;

    /// A split is accepted only when the high-regime mean rate exceeds the
    /// low-regime mean by this factor; otherwise the stream is classified as
    /// a single (high) regime — Poisson noise on a homogeneous stream must
    /// not fabricate regimes.
    double min_rate_ratio = 2.0;
};

/// Splits [0, T) into contiguous activity segments.  Always returns at
/// least one segment; a homogeneous stream yields exactly one high-activity
/// segment covering the whole period.
std::vector<ActivitySegment> segment_by_activity(const LinkStream& stream,
                                                 const SegmentationOptions& options = {});

/// Extracts and time-compacts all events falling into the segments of one
/// regime: the k-th selected segment is shifted so segments abut.  Returns
/// an empty stream (period 1) if the regime has no segments.
LinkStream compact_regime(const LinkStream& stream,
                          const std::vector<ActivitySegment>& segments, bool high_activity);

struct SegmentedSaturation {
    std::vector<ActivitySegment> segments;
    bool split = false;       // false: homogeneous, only gamma_high is set
    Time gamma_high = 0;      // saturation scale of the high-activity regime
    Time gamma_low = 0;       // of the low-activity regime (0 if absent)
    /// The safe whole-stream choice the paper suggests: the smallest present
    /// per-regime scale ("the one that better preserves the information").
    Time recommended = 0;
};

/// Runs segmentation + the occupancy method per regime.
SegmentedSaturation find_segmented_saturation(
    const LinkStream& stream, const SegmentationOptions& seg_options = {},
    const SweepConfig& sat_options = {});

}  // namespace natscale

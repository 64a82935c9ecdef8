#include "core/segmentation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/contracts.hpp"

namespace natscale {

namespace {

/// Otsu's 1-D threshold on raw values: returns the split value maximizing
/// the between-class variance, or nullopt when fewer than 2 distinct values.
std::optional<double> otsu_threshold(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n < 2 || values.front() == values.back()) return std::nullopt;

    std::vector<double> prefix(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) prefix[i + 1] = prefix[i] + values[i];
    const double total = prefix[n];

    double best_score = -1.0;
    std::size_t best_split = 1;  // first `split` values in the low class
    for (std::size_t split = 1; split < n; ++split) {
        if (values[split - 1] == values[split]) continue;  // not a boundary
        const double w0 = static_cast<double>(split);
        const double w1 = static_cast<double>(n - split);
        const double mu0 = prefix[split] / w0;
        const double mu1 = (total - prefix[split]) / w1;
        const double score = w0 * w1 * (mu0 - mu1) * (mu0 - mu1);
        if (score > best_score) {
            best_score = score;
            best_split = split;
        }
    }
    // Threshold between the two classes' boundary values.
    return (values[best_split - 1] + values[best_split]) / 2.0;
}

}  // namespace

std::vector<ActivitySegment> segment_by_activity(const LinkStream& stream,
                                                 const SegmentationOptions& options) {
    NATSCALE_EXPECTS(options.probe_bins >= 2);
    NATSCALE_EXPECTS(options.min_rate_ratio >= 1.0);
    const Time T = stream.period_end();
    const std::size_t bins = std::min<std::size_t>(options.probe_bins,
                                                   static_cast<std::size_t>(T));

    // Event counts per probe bin.
    std::vector<double> rates(bins, 0.0);
    const double bin_width = static_cast<double>(T) / static_cast<double>(bins);
    for (const auto& e : stream.events()) {
        auto idx = static_cast<std::size_t>(static_cast<double>(e.t) / bin_width);
        if (idx >= bins) idx = bins - 1;
        rates[idx] += 1.0;
    }
    for (double& r : rates) r /= bin_width;

    // Two-regime split with a bimodality guard.
    const auto threshold = otsu_threshold(rates);
    std::vector<bool> is_high(bins, true);
    if (threshold) {
        double low_sum = 0.0, high_sum = 0.0;
        std::size_t low_count = 0, high_count = 0;
        for (double r : rates) {
            if (r <= *threshold) {
                low_sum += r;
                ++low_count;
            } else {
                high_sum += r;
                ++high_count;
            }
        }
        if (low_count > 0 && high_count > 0) {
            const double low_mean = low_sum / static_cast<double>(low_count);
            const double high_mean = high_sum / static_cast<double>(high_count);
            // Guard 1: the regimes differ by the requested factor.
            const bool ratio_ok =
                high_mean >= options.min_rate_ratio * std::max(low_mean, 1e-12);
            // Guard 2: the separation exceeds Poisson noise.  Bin counts of a
            // homogeneous stream are ~Poisson(lambda); Otsu will still split
            // them, but with class means within a few sqrt(lambda) of each
            // other.  Work in counts: a real regime change separates the
            // class means by much more than the count fluctuation scale.
            const double high_counts = high_mean * bin_width;
            const double low_counts = low_mean * bin_width;
            const bool significant =
                (high_counts - low_counts) >= 3.0 * std::sqrt(std::max(high_counts, 1.0));
            if (ratio_ok && significant) {
                for (std::size_t i = 0; i < bins; ++i) is_high[i] = rates[i] > *threshold;
            }
        }
    }

    // Merge consecutive bins of the same class into segments.
    std::vector<ActivitySegment> segments;
    std::size_t run_begin = 0;
    for (std::size_t i = 1; i <= bins; ++i) {
        if (i == bins || is_high[i] != is_high[run_begin]) {
            ActivitySegment seg;
            seg.begin = static_cast<Time>(std::llround(bin_width * static_cast<double>(run_begin)));
            seg.end = i == bins
                          ? T
                          : static_cast<Time>(std::llround(bin_width * static_cast<double>(i)));
            seg.high_activity = is_high[run_begin];
            double events_in = 0.0;
            for (std::size_t b = run_begin; b < i; ++b) events_in += rates[b] * bin_width;
            seg.events_per_tick =
                seg.end > seg.begin ? events_in / static_cast<double>(seg.end - seg.begin) : 0.0;
            segments.push_back(seg);
            run_begin = i;
        }
    }
    NATSCALE_ENSURES(!segments.empty());
    NATSCALE_ENSURES(segments.front().begin == 0 && segments.back().end == T);
    return segments;
}

LinkStream compact_regime(const LinkStream& stream,
                          const std::vector<ActivitySegment>& segments, bool high_activity) {
    std::vector<Event> events;
    const auto all = stream.events();
    Time offset = 0;
    for (const auto& seg : segments) {
        if (seg.high_activity != high_activity) continue;
        // Events are time-sorted: binary search the segment's run.
        const auto first = std::lower_bound(
            all.begin(), all.end(), seg.begin,
            [](const Event& e, Time t) { return e.t < t; });
        for (auto it = first; it != all.end() && it->t < seg.end; ++it) {
            events.push_back({it->u, it->v, it->t - seg.begin + offset});
        }
        offset += seg.end - seg.begin;
    }
    if (offset == 0) return LinkStream({}, stream.num_nodes(), 1, stream.directed());
    return LinkStream(std::move(events), stream.num_nodes(), offset, stream.directed());
}

SegmentedSaturation find_segmented_saturation(const LinkStream& stream,
                                              const SegmentationOptions& seg_options,
                                              const SweepConfig& sat_options) {
    NATSCALE_EXPECTS(!stream.empty());
    SegmentedSaturation result;
    result.segments = segment_by_activity(stream, seg_options);

    bool has_low = false;
    for (const auto& seg : result.segments) has_low |= !seg.high_activity;
    result.split = has_low;

    const LinkStream high = compact_regime(stream, result.segments, true);
    if (!high.empty()) {
        result.gamma_high = find_saturation_scale(high, sat_options).gamma;
    }
    if (has_low) {
        const LinkStream low = compact_regime(stream, result.segments, false);
        if (!low.empty()) {
            result.gamma_low = find_saturation_scale(low, sat_options).gamma;
        }
    }
    if (result.gamma_high > 0 && result.gamma_low > 0) {
        result.recommended = std::min(result.gamma_high, result.gamma_low);
    } else {
        result.recommended = std::max(result.gamma_high, result.gamma_low);
    }
    NATSCALE_ENSURES(result.recommended > 0);
    return result;
}

}  // namespace natscale

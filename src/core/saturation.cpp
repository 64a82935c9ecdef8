#include "core/saturation.hpp"

#include <algorithm>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace natscale {

Time SaturationResult::gamma_for(UniformityMetric which) const {
    return curve.empty() ? 0 : curve[argmax_point(curve, which)].delta;
}

DeltaSweepOptions sweep_options_of(const SweepConfig& options) {
    DeltaSweepOptions sweep;
    sweep.histogram_bins = options.histogram_bins;
    sweep.shannon_slots = options.shannon_slots;
    sweep.num_threads = options.num_threads;
    return sweep;
}

namespace {

/// The evaluated curve: points sorted by delta, each with the histogram it
/// was scored from (retained so the gamma histogram needs no extra sweep at
/// the end of the search).
struct Curve {
    std::vector<DeltaPoint> points;
    std::vector<Histogram01> histograms;

    /// Position of `delta` in the sorted points.
    std::size_t position(Time delta) const {
        return static_cast<std::size_t>(
            std::lower_bound(points.begin(), points.end(), delta,
                             [](const DeltaPoint& p, Time d) { return p.delta < d; }) -
            points.begin());
    }
};

/// Batch-evaluates every delta of `grid` not present in `curve` yet and
/// inserts the results in delta order.
void evaluate_grid(const GridEvaluator& evaluate, const std::vector<Time>& grid,
                   Curve& curve) {
    std::vector<Time> missing;
    missing.reserve(grid.size());
    for (Time delta : grid) {
        const std::size_t at = curve.position(delta);
        if (at < curve.points.size() && curve.points[at].delta == delta) continue;
        missing.push_back(delta);
    }
    if (missing.empty()) return;

    std::vector<Histogram01> histograms;
    std::vector<DeltaPoint> points = evaluate(missing, &histograms);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto at = static_cast<std::ptrdiff_t>(curve.position(points[i].delta));
        curve.points.insert(curve.points.begin() + at, points[i]);
        curve.histograms.insert(curve.histograms.begin() + at, std::move(histograms[i]));
    }
}

}  // namespace

SaturationResult find_saturation_scale_with(const GridEvaluator& evaluate, Time lo,
                                            Time hi, const SweepConfig& options) {
    NATSCALE_EXPECTS(options.coarse_points >= 2);
    NATSCALE_EXPECTS(lo >= 1 && lo <= hi);

    SaturationResult result;
    result.metric = options.metric;

    Curve curve;
    {
        obs::Span span("saturation.coarse_grid");
        span.attr("points", static_cast<std::uint64_t>(options.coarse_points));
        evaluate_grid(evaluate, geometric_delta_grid(lo, hi, options.coarse_points), curve);
    }

    static obs::Counter& rounds_run = obs::counter("saturation.refine_rounds");
    for (std::size_t round = 0; round < options.refine_rounds; ++round) {
        const std::vector<DeltaPoint>& points = curve.points;
        const std::size_t best = argmax_point(points, options.metric);
        const Time bracket_lo = best == 0 ? points.front().delta : points[best - 1].delta;
        const Time bracket_hi =
            best + 1 >= points.size() ? points.back().delta : points[best + 1].delta;
        if (bracket_hi - bracket_lo <= 2) break;  // already at tick resolution
        obs::Span span("saturation.round");
        if (span.active()) {
            span.attr("round", static_cast<std::uint64_t>(round));
            span.attr("bracket_lo", static_cast<std::int64_t>(bracket_lo));
            span.attr("bracket_hi", static_cast<std::int64_t>(bracket_hi));
        }
        rounds_run.add();
        evaluate_grid(evaluate,
                      linear_delta_grid(bracket_lo, bracket_hi,
                                        std::max<std::size_t>(options.refine_points, 3)),
                      curve);
    }

    const std::size_t best = argmax_point(curve.points, options.metric);
    result.at_gamma = curve.points[best];
    result.gamma = result.at_gamma.delta;
    result.gamma_histogram = std::move(curve.histograms[best]);
    result.curve = std::move(curve.points);
    return result;
}

SaturationResult find_saturation_scale(const LinkStream& stream,
                                       const SweepConfig& options) {
    NATSCALE_EXPECTS(!stream.empty());

    const Time lo = options.min_delta > 0 ? options.min_delta : 1;

    DeltaSweepEngine engine(stream, sweep_options_of(options));
    return find_saturation_scale_with(
        [&engine](std::span<const Time> grid, std::vector<Histogram01>* histograms) {
            return engine.evaluate(grid, histograms);
        },
        lo, stream.period_end(), options);
}

}  // namespace natscale

#include "core/saturation.hpp"

#include <algorithm>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "core/occupancy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contracts.hpp"

namespace natscale {

Time SaturationResult::gamma_for(UniformityMetric which) const {
    Time best_delta = 0;
    double best_score = -1.0;
    for (const auto& point : curve) {
        const double score = score_of(point.scores, which);
        if (score > best_score) {
            best_score = score;
            best_delta = point.delta;
        }
    }
    return best_delta;
}

DeltaSweepOptions sweep_options_of(const SweepConfig& options) {
    DeltaSweepOptions sweep;
    sweep.histogram_bins = options.histogram_bins;
    sweep.shannon_slots = options.shannon_slots;
    sweep.num_threads = options.num_threads;
    sweep.backend = options.backend;
    return sweep;
}

DeltaPoint evaluate_delta(const LinkStream& stream, Time delta,
                          const SweepConfig& options, Histogram01* histogram_out) {
    DeltaPoint point;
    point.delta = delta;
    Histogram01 hist =
        occupancy_histogram(stream, delta, options.histogram_bins, options.backend);
    point.scores = compute_all_metrics(hist, options.shannon_slots);
    point.num_trips = hist.total();
    point.occupancy_mean = hist.mean();
    if (histogram_out != nullptr) *histogram_out = std::move(hist);
    return point;
}

namespace {

/// Curve point plus the histogram it was computed from (retained so the
/// gamma histogram needs no extra sweep at the end of the search).
struct CurvePoint {
    DeltaPoint point;
    Histogram01 histogram{Histogram01::kDefaultBins};
};

/// Batch-evaluates every delta of `grid` not present in `curve` yet and
/// inserts the results in delta order.
void evaluate_grid(const GridEvaluator& evaluate, const std::vector<Time>& grid,
                   std::vector<CurvePoint>& curve) {
    std::vector<Time> missing;
    missing.reserve(grid.size());
    for (Time delta : grid) {
        const auto it = std::lower_bound(
            curve.begin(), curve.end(), delta,
            [](const CurvePoint& p, Time d) { return p.point.delta < d; });
        if (it != curve.end() && it->point.delta == delta) continue;
        missing.push_back(delta);
    }
    if (missing.empty()) return;

    std::vector<Histogram01> histograms;
    std::vector<DeltaPoint> points = evaluate(missing, &histograms);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto it = std::lower_bound(
            curve.begin(), curve.end(), points[i].delta,
            [](const CurvePoint& p, Time d) { return p.point.delta < d; });
        curve.insert(it, CurvePoint{points[i], std::move(histograms[i])});
    }
}

std::size_t argmax_index(const std::vector<CurvePoint>& curve, UniformityMetric metric) {
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < curve.size(); ++i) {
        const double score = score_of(curve[i].point.scores, metric);
        if (score > best_score) {
            best_score = score;
            best = i;
        }
    }
    return best;
}

}  // namespace

SaturationResult find_saturation_scale_with(const GridEvaluator& evaluate, Time lo,
                                            Time hi, const SweepConfig& options) {
    NATSCALE_EXPECTS(options.coarse_points >= 2);
    NATSCALE_EXPECTS(lo >= 1 && lo <= hi);

    SaturationResult result;
    result.metric = options.metric;

    std::vector<CurvePoint> curve;
    {
        obs::Span span("saturation.coarse_grid");
        span.attr("points", static_cast<std::uint64_t>(options.coarse_points));
        evaluate_grid(evaluate, geometric_delta_grid(lo, hi, options.coarse_points), curve);
    }

    static obs::Counter& rounds_run = obs::counter("saturation.refine_rounds");
    for (std::size_t round = 0; round < options.refine_rounds; ++round) {
        const std::size_t best = argmax_index(curve, options.metric);
        const Time bracket_lo = best == 0 ? curve.front().point.delta
                                          : curve[best - 1].point.delta;
        const Time bracket_hi = best + 1 >= curve.size() ? curve.back().point.delta
                                                         : curve[best + 1].point.delta;
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

    const std::size_t best = argmax_index(curve, options.metric);
    result.at_gamma = curve[best].point;
    result.gamma = result.at_gamma.delta;
    result.gamma_histogram = std::move(curve[best].histogram);
    result.curve.reserve(curve.size());
    for (const auto& entry : curve) result.curve.push_back(entry.point);
    return result;
}

SaturationResult find_saturation_scale(const LinkStream& stream,
                                       const SweepConfig& options) {
    NATSCALE_EXPECTS(!stream.empty());

    const Time lo = options.min_delta > 0 ? options.min_delta : 1;
    const Time hi = options.max_delta > 0 ? options.max_delta : stream.period_end();

    DeltaSweepEngine engine(stream, sweep_options_of(options));
    return find_saturation_scale_with(
        [&engine](std::span<const Time> grid, std::vector<Histogram01>* histograms) {
            return engine.evaluate(grid, histograms);
        },
        lo, hi, options);
}

}  // namespace natscale

#include "core/delta_sweep.hpp"

#include "core/occupancy.hpp"
#include "linkstream/aggregation.hpp"
#include "temporal/scan_periods.hpp"

namespace natscale {

DeltaPoint score_delta_point(Time delta, const Histogram01& histogram,
                             std::size_t shannon_slots) {
    DeltaPoint point;
    point.delta = delta;
    point.scores = compute_all_metrics(histogram, shannon_slots);
    point.num_trips = histogram.total();
    point.occupancy_mean = histogram.mean();
    return point;
}

std::size_t argmax_point(std::span<const DeltaPoint> points, UniformityMetric metric) {
    std::size_t best = 0;
    double best_score = -1.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double score = score_of(points[i].scores, metric);
        if (score > best_score) {
            best_score = score;
            best = i;
        }
    }
    return best;
}

DeltaSweepEngine::DeltaSweepEngine(const LinkStream& stream, DeltaSweepOptions options)
    : stream_(&stream), options_(options) {}

GraphSeries DeltaSweepEngine::aggregate(Time delta) const {
    return natscale::aggregate(*stream_, delta);
}

ThreadPool& DeltaSweepEngine::pool() {
    if (pool_ == nullptr) {
        // num_threads is THE concurrency (and therefore memory) cap: one
        // reachability engine is cloned per pool worker, so the pool is
        // never widened beyond it.
        pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    }
    return *pool_;
}

std::vector<DeltaPoint> DeltaSweepEngine::evaluate(std::span<const Time> grid,
                                                   std::vector<Histogram01>* histograms_out) {
    std::vector<Histogram01> hists = scan_periods(
        pool(), grid.size(), [&](std::size_t index) { return aggregate(grid[index]); },
        Histogram01(options_.histogram_bins),
        [](Histogram01& hist, const GraphSeries&) { return OccupancyTally(hist); });
    std::vector<DeltaPoint> points(grid.size());
    for (std::size_t g = 0; g < grid.size(); ++g) {
        points[g] = score_delta_point(grid[g], hists[g], options_.shannon_slots);
    }
    if (histograms_out != nullptr) *histograms_out = std::move(hists);
    return points;
}

}  // namespace natscale

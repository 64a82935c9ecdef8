#include "stats/histogram01.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace natscale {

Histogram01::Histogram01(std::size_t num_bins) : counts_(num_bins, 0) {
    NATSCALE_EXPECTS(num_bins >= 1);
}

void Histogram01::add(double x, std::uint64_t count) noexcept {
    // A NaN sample carries no information and would fall through both range
    // guards below into an out-of-bounds bin index.  Drop it.
    if (std::isnan(x)) return;
    const std::size_t bins = counts_.size();
    std::size_t idx;
    if (x <= 0.0) {
        idx = 0;
        x = 0.0;  // clamp the moment contribution too (-inf would poison sum_)
    } else if (x >= 1.0) {
        idx = bins - 1;
        x = 1.0;
    } else {
        // Bin j covers (j/B, (j+1)/B]: index = ceil(x*B) - 1.
        idx = ceil_to_size(x * static_cast<double>(bins)) - 1;
        if (idx >= bins) idx = bins - 1;
    }
    counts_[idx] += count;
    total_ += count;
    sum_.add(x, count);
    sum_sq_.add(x * x, count);
}

void Histogram01::add(double x) noexcept { add(x, 1); }

Histogram01 Histogram01::restore(std::vector<std::uint64_t> counts, std::uint64_t total,
                                 ExactSum sum, ExactSum sum_sq) {
    NATSCALE_EXPECTS(invalid_state(counts, total, sum, sum_sq) == nullptr);
    Histogram01 hist(counts.size());
    hist.counts_ = std::move(counts);
    hist.total_ = total;
    hist.sum_ = sum;
    hist.sum_sq_ = sum_sq;
    return hist;
}

const char* Histogram01::invalid_state(const std::vector<std::uint64_t>& counts,
                                       std::uint64_t total, const ExactSum& sum,
                                       const ExactSum& sum_sq) noexcept {
    if (counts.empty()) return "histogram has no bins";
    std::uint64_t check = 0;
    bool wrapped = false;
    for (const std::uint64_t c : counts) wrapped |= __builtin_add_overflow(check, c, &check);
    if (wrapped || check != total) return "histogram counts do not sum";
    if (!sum.below_2_to_78() || !sum_sq.below_2_to_78()) return "moment sums out of range";
    return nullptr;
}

double Histogram01::mean() const noexcept {
    return total_ == 0 ? 0.0 : sum_.value() / static_cast<double>(total_);
}

double Histogram01::population_stddev() const noexcept {
    if (total_ == 0) return 0.0;
    const double n = static_cast<double>(total_);
    const double mu = sum_.value() / n;
    const double var = sum_sq_.value() / n - mu * mu;
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

std::vector<double> Histogram01::survival_at_edges() const {
    const std::size_t bins = counts_.size();
    std::vector<double> surv(bins + 1, 0.0);
    if (total_ == 0) return surv;
    // Mass of bin j sits at right edge (j+1)/B, so it is strictly greater
    // than every edge lambda_i with i <= j.
    std::uint64_t above = total_;
    surv[0] = 1.0;
    for (std::size_t j = 0; j < bins; ++j) {
        above -= counts_[j];
        surv[j + 1] = static_cast<double>(above) / static_cast<double>(total_);
    }
    return surv;
}

std::vector<std::pair<double, double>> Histogram01::icd_points() const {
    const auto surv = survival_at_edges();
    const std::size_t bins = counts_.size();
    std::vector<std::pair<double, double>> points;
    points.emplace_back(0.0, surv[0]);
    for (std::size_t j = 0; j < bins; ++j) {
        if (counts_[j] != 0 || j + 1 == bins) {
            points.emplace_back(static_cast<double>(j + 1) / static_cast<double>(bins),
                                surv[j + 1]);
        }
    }
    return points;
}

}  // namespace natscale

#include "core/delta_grid.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/math.hpp"

namespace natscale {

std::vector<Time> geometric_delta_grid(Time lo, Time hi, std::size_t count) {
    NATSCALE_EXPECTS(lo >= 1 && lo <= hi);
    NATSCALE_EXPECTS(count >= 2);
    if (lo == hi) return {lo};
    const auto values = geomspace(static_cast<double>(lo), static_cast<double>(hi), count);
    std::vector<Time> grid;
    grid.reserve(values.size());
    for (double v : values) {
        const Time t = static_cast<Time>(std::llround(v));
        if (grid.empty() || t > grid.back()) grid.push_back(t);
    }
    return grid;
}

std::vector<Time> linear_delta_grid(Time lo, Time hi, std::size_t count) {
    NATSCALE_EXPECTS(lo >= 1 && lo <= hi);
    NATSCALE_EXPECTS(count >= 2);
    if (lo == hi) return {lo};
    const auto values = linspace(static_cast<double>(lo), static_cast<double>(hi), count);
    std::vector<Time> grid;
    grid.reserve(values.size());
    for (double v : values) {
        const Time t = static_cast<Time>(std::llround(v));
        if (grid.empty() || t > grid.back()) grid.push_back(t);
    }
    return grid;
}

}  // namespace natscale

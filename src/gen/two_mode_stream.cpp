#include "gen/two_mode_stream.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {

LinkStream detail::two_mode_stream_impl(const TwoModeSpec& spec, std::uint64_t seed) {
    NATSCALE_EXPECTS(spec.num_nodes >= 2);
    NATSCALE_EXPECTS(spec.alternations >= 1);
    NATSCALE_EXPECTS(spec.period_end >= static_cast<Time>(spec.alternations));
    NATSCALE_EXPECTS(spec.low_activity_share >= 0.0 && spec.low_activity_share <= 1.0);

    const Time cycle = spec.period_end / static_cast<Time>(spec.alternations);
    NATSCALE_EXPECTS(cycle >= 2);
    const Time t2 = static_cast<Time>(
        std::llround(spec.low_activity_share * static_cast<double>(cycle)));
    const Time t1 = cycle - t2;

    // Fixed rates: mean links per pair per period scale with the period's
    // share of the cycle, so the instantaneous density of each mode does not
    // depend on rho.
    const double mean_high = static_cast<double>(spec.links_high) *
                             static_cast<double>(t1) / static_cast<double>(cycle);
    const double mean_low = static_cast<double>(spec.links_low) *
                            static_cast<double>(t2) / static_cast<double>(cycle);

    Rng rng(seed);
    std::vector<Event> events;

    // Poisson-many uniform links for one pair within [begin, begin + length).
    auto emit_uniform = [&](NodeId u, NodeId v, Time begin, Time length, double mean) {
        if (length <= 0 || mean <= 0.0) return;  // degenerate mode: period absent
        const std::int64_t count = rng.poisson(mean);
        for (std::int64_t i = 0; i < count; ++i) {
            const Time t = begin + rng.uniform_int(0, length - 1);
            events.push_back({u, v, t});
        }
    };

    for (std::size_t cycle_index = 0; cycle_index < spec.alternations; ++cycle_index) {
        const Time cycle_begin = static_cast<Time>(cycle_index) * cycle;
        for (NodeId u = 0; u < spec.num_nodes; ++u) {
            for (NodeId v = u + 1; v < spec.num_nodes; ++v) {
                emit_uniform(u, v, cycle_begin, t1, mean_high);
                emit_uniform(u, v, cycle_begin + t1, t2, mean_low);
            }
        }
    }
    NATSCALE_ENSURES(!events.empty());
    return LinkStream(std::move(events), spec.num_nodes, spec.period_end, /*directed=*/false);
}

}  // namespace natscale

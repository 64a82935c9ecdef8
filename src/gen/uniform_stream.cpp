#include "gen/uniform_stream.hpp"

#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {

LinkStream detail::uniform_stream_impl(const UniformStreamSpec& spec, std::uint64_t seed) {
    NATSCALE_EXPECTS(spec.num_nodes >= 2);
    NATSCALE_EXPECTS(spec.period_end >= 1);
    NATSCALE_EXPECTS(spec.links_per_pair >= 1);

    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(static_cast<std::size_t>(spec.num_nodes) * (spec.num_nodes - 1) / 2 *
                   spec.links_per_pair);
    for (NodeId u = 0; u < spec.num_nodes; ++u) {
        for (NodeId v = u + 1; v < spec.num_nodes; ++v) {
            for (std::size_t i = 0; i < spec.links_per_pair; ++i) {
                const Time t = rng.uniform_int(0, spec.period_end - 1);
                events.push_back({u, v, t});
            }
        }
    }
    return LinkStream(std::move(events), spec.num_nodes, spec.period_end, /*directed=*/false);
}

double uniform_mean_intercontact(const UniformStreamSpec& spec) {
    return static_cast<double>(spec.period_end) /
           (static_cast<double>(spec.links_per_pair) *
            (static_cast<double>(spec.num_nodes) - 1.0));
}

}  // namespace natscale

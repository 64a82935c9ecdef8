#include "gen/replicas.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace natscale {

ReplicaSpec ReplicaSpec::scaled(double factor) const {
    NATSCALE_EXPECTS(factor > 0.0 && factor <= 1.0);
    ReplicaSpec spec = *this;
    spec.num_nodes = std::max<NodeId>(8, static_cast<NodeId>(
        std::llround(static_cast<double>(num_nodes) * factor)));
    // Events scale with nodes so per-node activity (events / node / day) is
    // unchanged; the duration stays fixed so time scales keep their meaning.
    spec.num_events = std::max<std::size_t>(
        64, static_cast<std::size_t>(std::llround(static_cast<double>(num_events) * factor)));
    return spec;
}

ReplicaSpec irvine_spec() {
    ReplicaSpec spec;
    spec.name = "irvine";
    spec.num_nodes = 1'509;
    spec.num_events = 48'000;
    spec.period_end = 4'230'000;  // ~1175 hours (48.9 days), 1 s ticks
    spec.directed = true;
    spec.zipf_exponent = 0.90;
    spec.mean_contacts = 12.0;
    spec.reply_probability = 0.40;
    spec.mean_reply_delay = 3'600.0;  // online community: fast replies
    return spec;
}

ReplicaSpec facebook_spec() {
    ReplicaSpec spec;
    spec.name = "facebook";
    spec.num_nodes = 3'387;
    spec.num_events = 11'991;
    spec.period_end = 2'592'000;  // 1 month
    spec.directed = true;
    spec.zipf_exponent = 0.95;
    spec.mean_contacts = 8.0;
    spec.reply_probability = 0.25;
    spec.mean_reply_delay = 21'600.0;  // wall posts: slow reciprocation
    return spec;
}

ReplicaSpec enron_spec() {
    ReplicaSpec spec;
    spec.name = "enron";
    spec.num_nodes = 150;
    spec.num_events = 15'951;
    spec.period_end = 31'536'000;  // year 2001
    spec.directed = true;
    spec.zipf_exponent = 0.85;
    spec.mean_contacts = 15.0;
    spec.reply_probability = 0.35;
    spec.mean_reply_delay = 10'800.0;
    return spec;
}

ReplicaSpec manufacturing_spec() {
    ReplicaSpec spec;
    spec.name = "manufacturing";
    spec.num_nodes = 153;
    spec.num_events = 82'894;
    spec.period_end = 21'081'600;  // 244 days (~8 months)
    spec.directed = true;
    spec.zipf_exponent = 0.80;
    spec.mean_contacts = 20.0;
    spec.reply_probability = 0.45;
    spec.mean_reply_delay = 2'700.0;  // internal company mail: fast replies
    return spec;
}

std::vector<ReplicaSpec> all_replica_specs() {
    return {irvine_spec(), facebook_spec(), enron_spec(), manufacturing_spec()};
}

LinkStream detail::replica_impl(const ReplicaSpec& spec, std::uint64_t seed) {
    NATSCALE_EXPECTS(spec.num_nodes >= 2);
    NATSCALE_EXPECTS(spec.num_events >= 1);
    NATSCALE_EXPECTS(spec.period_end >= 2);

    Rng rng(seed);
    const NodeId n = spec.num_nodes;

    // Per-user activity weights and popularity weights (independent Zipf
    // ranks: prolific senders are not necessarily popular receivers).
    const auto send_weights = zipf_weights(n, spec.zipf_exponent, rng);
    const auto recv_weights = zipf_weights(n, spec.zipf_exponent, rng);
    const WeightedSampler sender_sampler(send_weights);
    const WeightedSampler receiver_sampler(recv_weights);

    // Contact circles: each user keeps a small list of favourite partners,
    // drawn by popularity, so pairs repeat the way real correspondents do.
    std::vector<std::vector<NodeId>> contacts(n);
    for (NodeId u = 0; u < n; ++u) {
        const std::int64_t circle = 1 + rng.poisson(std::max(0.0, spec.mean_contacts - 1.0));
        for (std::int64_t i = 0; i < circle; ++i) {
            const NodeId w = static_cast<NodeId>(receiver_sampler.sample(rng));
            if (w != u) contacts[u].push_back(w);
        }
        if (contacts[u].empty()) contacts[u].push_back((u + 1) % n);
    }

    const CircadianSampler clock(spec.period_end, spec.profile);

    std::vector<Event> events;
    events.reserve(spec.num_events);
    while (events.size() < spec.num_events) {
        const NodeId sender = static_cast<NodeId>(sender_sampler.sample(rng));
        NodeId receiver;
        if (rng.bernoulli(spec.in_circle_probability)) {
            receiver = contacts[sender][rng.uniform_index(contacts[sender].size())];
        } else {
            do {
                receiver = static_cast<NodeId>(receiver_sampler.sample(rng));
            } while (receiver == sender);
        }
        if (receiver == sender) continue;
        const Time t = clock.sample(rng);
        events.push_back({sender, receiver, t});

        // Reply burst: the receiver answers after a floored exponential delay.
        if (events.size() < spec.num_events && rng.bernoulli(spec.reply_probability)) {
            const double mean_tail =
                std::max(1.0, spec.mean_reply_delay - spec.min_reply_delay);
            const Time delay = static_cast<Time>(spec.min_reply_delay) +
                               static_cast<Time>(rng.exponential(1.0 / mean_tail));
            const Time reply_time = t + delay;
            if (reply_time < spec.period_end) {
                events.push_back({receiver, sender, reply_time});
            }
        }
    }
    return LinkStream(std::move(events), n, spec.period_end, spec.directed);
}

}  // namespace natscale

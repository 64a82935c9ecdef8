// Synthetic replicas of the four real-world traces of the paper's Section 5.
//
// The original traces (UC Irvine messages, Facebook wall posts, Enron
// e-mails, Manufacturing e-mails) are not redistributable with this
// repository; each replica generator matches the published node count,
// event count, study duration, resolution (1 s) and directedness, and
// combines the human-activity ingredients of gen/activity_model.hpp
// (circadian + weekly rhythm, Zipf user activity, social contact circles,
// reply bursts).  DESIGN.md documents why this substitution preserves the
// behaviour the occupancy method depends on; EXPERIMENTS.md records replica
// vs paper values for every figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/activity_model.hpp"
#include "linkstream/link_stream.hpp"
#include "util/types.hpp"

namespace natscale {

struct ReplicaSpec {
    std::string name;
    NodeId num_nodes = 0;
    std::size_t num_events = 0;
    Time period_end = 0;  // ticks of 1 s
    bool directed = true;

    /// Zipf exponent of per-user activity (1.0-1.5 typical for e-mail).
    double zipf_exponent = 1.2;

    /// Mean size of a user's contact circle and probability of messaging
    /// inside it (vs a popularity-weighted random user).
    double mean_contacts = 10.0;
    double in_circle_probability = 0.8;

    /// Probability that a message triggers a reply, and mean reply delay (s).
    double reply_probability = 0.35;
    double mean_reply_delay = 5'400.0;

    /// Minimum human reaction time for a reply (s).  Real message traces
    /// contain essentially no sub-minute forwarding; without this floor the
    /// replicas exhibit crushed fast routes that real data does not have,
    /// which distorts the elongation validation (Fig. 8 right).
    double min_reply_delay = 120.0;

    CircadianSampler::Profile profile = CircadianSampler::office_hours();

    /// Scales the whole replica for quick test runs: node and event counts
    /// and duration are multiplied by `factor` in a way that preserves the
    /// per-node activity level.  factor in (0, 1].
    ReplicaSpec scaled(double factor) const;
};

/// Published parameters of the four datasets (paper Section 5):
///   Irvine:        1 509 users, 48 000 messages, ~1 175 h, 0.66 msg/p/day
///   Facebook:      3 387 users, 11 991 posts,    1 month,  0.12 msg/p/day
///   Enron:           150 employees, 15 951 mails, year 2001, 0.29 msg/p/day
///   Manufacturing:   153 employees, 82 894 mails, 8 months, 2.22 msg/p/day
ReplicaSpec irvine_spec();
ReplicaSpec facebook_spec();
ReplicaSpec enron_spec();
ReplicaSpec manufacturing_spec();

/// All four, in the order above.
std::vector<ReplicaSpec> all_replica_specs();

namespace detail {
/// The implementation behind the registry's "replica" model
/// (gen/models_paper.cpp); callers generate through
/// gen::generate_stream("replica:dataset=...,scale=...").  Deterministic
/// for a fixed (spec, seed).
LinkStream replica_impl(const ReplicaSpec& spec, std::uint64_t seed);
}  // namespace detail

}  // namespace natscale

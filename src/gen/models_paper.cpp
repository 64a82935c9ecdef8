// The paper's synthetic families (Sections 5 and 6) as registry models:
// "uniform" and "two_mode" (Fig. 6) and "replica" (the Section 5 dataset
// substitutes).  Each model parses its typed params, calls the SAME
// implementation as the legacy entry points (detail::*_impl), and reports
// its known-by-construction ground truth — exact event counts where the
// construction fixes them, per-pair counts for uniform, phase structure
// for two_mode, pair-repetition for the replicas.
#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "gen/models.hpp"
#include "gen/registry.hpp"
#include "gen/replicas.hpp"
#include "gen/two_mode_stream.hpp"
#include "gen/uniform_stream.hpp"
#include "util/format.hpp"

namespace natscale::gen {

namespace {

constexpr std::uint64_t kMaxGeneratedEvents = 1'000'000'000ULL;

void require_event_budget(const std::string& spec_name, double events) {
    if (!(events <= static_cast<double>(kMaxGeneratedEvents))) {
        throw gen_error("spec '" + spec_name + "' would generate ~" +
                        std::to_string(static_cast<std::uint64_t>(events)) +
                        " events (cap " + std::to_string(kMaxGeneratedEvents) + ")");
    }
}

GeneratedStream make_uniform(const GenSpec& spec) {
    const ParamReader reader(spec);
    UniformStreamSpec model;
    model.num_nodes = static_cast<NodeId>(reader.get_count("n", 100));
    model.links_per_pair = reader.get_count("links", 10);
    model.period_end = reader.get_time("T", 100'000);
    ParamReader::require(model.num_nodes >= 2, "n", std::to_string(model.num_nodes), ">= 2");
    ParamReader::require(model.links_per_pair >= 1, "links",
                         std::to_string(model.links_per_pair), ">= 1");
    ParamReader::require(model.period_end >= 1, "T", std::to_string(model.period_end),
                         ">= 1");
    const double pairs = static_cast<double>(model.num_nodes) *
                         (static_cast<double>(model.num_nodes) - 1.0) / 2.0;
    require_event_budget(spec.model, pairs * static_cast<double>(model.links_per_pair));

    GeneratedStream out{detail::uniform_stream_impl(model, spec.seed), {}};
    GroundTruth& truth = out.truth;
    truth.num_nodes = model.num_nodes;
    truth.period_end = model.period_end;
    truth.directed = false;
    const std::uint64_t exact =
        static_cast<std::uint64_t>(pairs) * model.links_per_pair;
    truth.min_events = exact;
    truth.max_events = exact;
    truth.facts["mean_intercontact"] = uniform_mean_intercontact(model);
    truth.facts["links_per_pair"] = static_cast<double>(model.links_per_pair);
    const std::size_t links = model.links_per_pair;
    truth.invariants.push_back(
        {"every_pair_has_exactly_links_events", [links](const LinkStream& stream) {
             std::map<std::pair<NodeId, NodeId>, std::size_t> counts;
             for (const auto& e : stream.events()) ++counts[{e.u, e.v}];
             for (const auto& [pair, count] : counts) {
                 if (count != links) {
                     return "pair (" + std::to_string(pair.first) + "," +
                            std::to_string(pair.second) + ") has " + std::to_string(count) +
                            " events, expected " + std::to_string(links);
                 }
             }
             const std::size_t n = stream.num_nodes();
             if (counts.size() != n * (n - 1) / 2) {
                 return "only " + std::to_string(counts.size()) + " of " +
                        std::to_string(n * (n - 1) / 2) + " pairs appear";
             }
             return std::string();
         }});
    truth.notes = "time-uniform network (paper Fig. 6 left)";
    return out;
}

GeneratedStream make_two_mode(const GenSpec& spec) {
    const ParamReader reader(spec);
    TwoModeSpec model;
    model.num_nodes = static_cast<NodeId>(reader.get_count("n", 100));
    model.alternations = reader.get_count("alternations", 10);
    model.links_high = reader.get_count("links_high", 12);
    model.links_low = reader.get_count("links_low", 1);
    model.period_end = reader.get_time("T", 100'000);
    model.low_activity_share = reader.get_double("low_share", 0.5);
    ParamReader::require(model.num_nodes >= 2, "n", std::to_string(model.num_nodes), ">= 2");
    ParamReader::require(model.alternations >= 1, "alternations",
                         std::to_string(model.alternations), ">= 1");
    ParamReader::require(
        model.low_activity_share >= 0.0 && model.low_activity_share <= 1.0, "low_share",
        std::to_string(model.low_activity_share), "in [0, 1]");
    ParamReader::require(model.period_end >= static_cast<Time>(2 * model.alternations), "T",
                         std::to_string(model.period_end), ">= 2 * alternations");
    const double pairs = static_cast<double>(model.num_nodes) *
                         (static_cast<double>(model.num_nodes) - 1.0) / 2.0;
    require_event_budget(
        spec.model, pairs * static_cast<double>(model.alternations) *
                        static_cast<double>(model.links_high + model.links_low));

    GeneratedStream out{detail::two_mode_stream_impl(model, spec.seed), {}};
    GroundTruth& truth = out.truth;
    truth.num_nodes = model.num_nodes;
    truth.period_end = model.period_end;
    truth.directed = false;
    truth.min_events = 1;  // impl ENSURES non-empty
    truth.facts["low_share"] = model.low_activity_share;
    truth.facts["alternations"] = static_cast<double>(model.alternations);

    const Time cycle = model.period_end / static_cast<Time>(model.alternations);
    const Time t2 = static_cast<Time>(
        std::llround(model.low_activity_share * static_cast<double>(cycle)));
    const Time t1 = cycle - t2;
    if (model.links_low == 0 && t2 > 0 && t1 > 0) {
        // Pure-high emission: the low phases are silent by construction.
        truth.invariants.push_back(
            {"no_events_in_low_phase", [cycle, t1](const LinkStream& stream) {
                 for (const auto& e : stream.events()) {
                     if (e.t % cycle >= t1) {
                         return "event at t=" + std::to_string(e.t) +
                                " falls in a silent low phase";
                     }
                 }
                 return std::string();
             }});
    } else if (t1 > 0 && t2 > 0 && model.links_high > 2 * model.links_low &&
               model.links_low >= 1) {
        // Fixed-rate parametrization: the high-phase instantaneous rate
        // strictly dominates the low-phase one (the Fig. 6 plateau's cause).
        truth.invariants.push_back(
            {"high_phase_rate_dominates", [cycle, t1, t2](const LinkStream& stream) {
                 double high = 0.0;
                 double low = 0.0;
                 for (const auto& e : stream.events()) {
                     (e.t % cycle < t1 ? high : low) += 1.0;
                 }
                 const double high_rate = high / static_cast<double>(t1);
                 const double low_rate = low / static_cast<double>(t2);
                 if (high_rate <= low_rate) {
                     return "high-phase rate " + std::to_string(high_rate) +
                            " does not dominate low-phase rate " + std::to_string(low_rate);
                 }
                 return std::string();
             }});
    }
    truth.notes = "two-mode alternating network (paper Fig. 6 right)";
    return out;
}

const ReplicaSpec* find_replica(const std::string& dataset,
                                const std::vector<ReplicaSpec>& all) {
    for (const auto& spec : all) {
        if (spec.name == dataset) return &spec;
    }
    return nullptr;
}

GeneratedStream make_replica(const GenSpec& spec) {
    const ParamReader reader(spec);
    const std::string dataset = reader.get_choice(
        "dataset", "enron", {"irvine", "facebook", "enron", "manufacturing"});
    const double scale = reader.get_double("scale", 1.0);
    ParamReader::require(scale > 0.0 && scale <= 1.0, "scale", std::to_string(scale),
                         "in (0, 1]");

    static const std::vector<ReplicaSpec> all = all_replica_specs();
    ReplicaSpec model = *find_replica(dataset, all);
    if (scale < 1.0) model = model.scaled(scale);

    GeneratedStream out{detail::replica_impl(model, spec.seed), {}};
    GroundTruth& truth = out.truth;
    truth.num_nodes = model.num_nodes;
    truth.period_end = model.period_end;
    truth.directed = model.directed;
    truth.min_events = model.num_events;
    truth.max_events = model.num_events + 1;  // a final reply may overshoot by one
    truth.facts["activity_per_person_day"] =
        static_cast<double>(model.num_events) /
        (static_cast<double>(model.num_nodes) *
         (static_cast<double>(model.period_end) / 86'400.0));
    truth.facts["spec_events"] = static_cast<double>(model.num_events);
    // Correspondents write to the same people again and again: facebook, the
    // sparsest replica, reads 1.48-1.74 events per distinct pair over seeds
    // 1-9 and scales 0.08-1 (the others 2.27 and up), while a fresh random
    // pair per message would read about 1.0005.
    truth.invariants.push_back(
        {"pairs_repeat_like_real_correspondents", [](const LinkStream& stream) {
             std::set<std::pair<NodeId, NodeId>> distinct;
             for (const auto& e : stream.events()) distinct.insert({e.u, e.v});
             const double per_pair = static_cast<double>(stream.num_events()) /
                                     static_cast<double>(distinct.size());
             if (per_pair < 1.25) {
                 return format_fixed(per_pair, 4) + " events per distinct pair (" +
                        std::to_string(stream.num_events()) + " events over " +
                        std::to_string(distinct.size()) + " pairs), below 1.25";
             }
             return std::string();
         }});
    truth.notes = "human-activity replica of the '" + dataset + "' trace (paper Section 5)";
    return out;
}

}  // namespace

void register_paper_models(GeneratorRegistry& registry) {
    registry.add({"uniform",
                  ModelKind::paper,
                  "time-uniform network: every pair gets `links` uniformly random "
                  "timestamps in [0, T)",
                  {{"n", "100", "node count (>= 2)"},
                   {"links", "10", "links per pair (exact, >= 1)"},
                   {"T", "100000", "period of study in ticks"}},
                  make_uniform});
    registry.add({"two_mode",
                  ModelKind::paper,
                  "m alternations of a high-activity and a low-activity uniform phase "
                  "with fixed instantaneous rates",
                  {{"n", "100", "node count (>= 2)"},
                   {"alternations", "10", "cycles m (>= 1)"},
                   {"links_high", "12", "links per pair per cycle at low_share = 0"},
                   {"links_low", "1", "links per pair per cycle at low_share = 1"},
                   {"T", "100000", "period of study; cycle = T / alternations"},
                   {"low_share", "0.5", "share of each cycle spent in the low phase [0, 1]"}},
                  make_two_mode});
    registry.add({"replica",
                  ModelKind::paper,
                  "circadian + Zipf + reply-burst replica of a published dataset "
                  "(directed)",
                  {{"dataset", "enron", "irvine|facebook|enron|manufacturing"},
                   {"scale", "1.0", "node/event scale factor in (0, 1]"}},
                  make_replica});
}

}  // namespace natscale::gen

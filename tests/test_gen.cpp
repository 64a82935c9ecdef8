// Tests for the scenario factory (gen/spec, gen/registry) and the stream
// models behind it: spec grammar, registry resolution, model behaviour,
// and golden parity with the legacy pre-factory generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "gen/activity_model.hpp"
#include "gen/registry.hpp"
#include "gen/replicas.hpp"
#include "gen/two_mode_stream.hpp"
#include "gen/uniform_stream.hpp"
#include "linkstream/stream_stats.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

using gen::GenSpec;
using gen::gen_error;
using gen::generate_stream;
using gen::parse_gen_spec;

// --- spec grammar -----------------------------------------------------------

TEST(GenSpec, ParsesModelOnlyAndDefaults) {
    const GenSpec spec = parse_gen_spec("uniform");
    EXPECT_EQ(spec.model, "uniform");
    EXPECT_TRUE(spec.params.empty());
    EXPECT_EQ(spec.seed, 7u);
}

TEST(GenSpec, ParsesParamsAndHoistsSeed) {
    const GenSpec spec = parse_gen_spec("uniform:n=40,links=5,seed=3");
    EXPECT_EQ(spec.model, "uniform");
    ASSERT_EQ(spec.params.size(), 2u);
    EXPECT_EQ(spec.params.at("n"), "40");
    EXPECT_EQ(spec.params.at("links"), "5");
    EXPECT_EQ(spec.seed, 3u);
}

TEST(GenSpec, CanonicalEchoRoundTrips) {
    const GenSpec spec = parse_gen_spec("two_mode:low_share=0.25,n=12,seed=9");
    EXPECT_EQ(gen::to_string(spec), "two_mode:low_share=0.25,n=12,seed=9");
    const GenSpec again = parse_gen_spec(gen::to_string(spec));
    EXPECT_EQ(again.model, spec.model);
    EXPECT_EQ(again.params, spec.params);
    EXPECT_EQ(again.seed, spec.seed);
    // Model-only specs still echo their seed.
    EXPECT_EQ(gen::to_string(parse_gen_spec("empty")), "empty:seed=7");
}

TEST(GenSpec, RejectsMalformedText) {
    EXPECT_THROW(parse_gen_spec(""), gen_error);
    EXPECT_THROW(parse_gen_spec(":n=4"), gen_error);
    EXPECT_THROW(parse_gen_spec("uniform:n"), gen_error);
    EXPECT_THROW(parse_gen_spec("uniform:=4"), gen_error);
    EXPECT_THROW(parse_gen_spec("uniform:n=4,n=5"), gen_error);
    EXPECT_THROW(parse_gen_spec("uniform:seed=abc"), gen_error);
}

TEST(GenSpec, RejectsDuplicateSeedLikeAnyOtherKey) {
    // seed is hoisted into its own struct field, so the params-map duplicate
    // check never saw it: "seed=1,seed=2" used to keep 2 silently and the
    // canonical echo dropped a parameter the caller passed.  Every duplicate
    // key — seed included — must be a gen_error naming the key.
    EXPECT_THROW(parse_gen_spec("uniform:seed=1,seed=2"), gen_error);
    EXPECT_THROW(parse_gen_spec("uniform:n=4,seed=1,links=2,seed=1"), gen_error);
    try {
        parse_gen_spec("uniform:seed=1,seed=2");
        FAIL() << "duplicate seed accepted";
    } catch (const gen_error& e) {
        EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos) << e.what();
    }
}

TEST(GenSpec, CanonicalEchoNeverSilentlyDropsAParameter) {
    // The echo contract: every key=value the caller passed either appears in
    // to_string(parse(s)) or parsing rejected the spec.  With duplicates of
    // any key (seed included) rejected, the echo of an accepted spec carries
    // exactly the parameters that were given.
    const std::string echo = gen::to_string(parse_gen_spec("uniform:links=5,n=40,seed=3"));
    EXPECT_NE(echo.find("links=5"), std::string::npos) << echo;
    EXPECT_NE(echo.find("n=40"), std::string::npos) << echo;
    EXPECT_NE(echo.find("seed=3"), std::string::npos) << echo;
}

// --- registry resolution ----------------------------------------------------

TEST(GeneratorRegistry, KnowsEveryExpectedModel) {
    const auto& registry = gen::generator_registry();
    for (const char* name : {"uniform", "two_mode", "replica", "bursty", "periodic",
                             "growing", "merge_split", "dup_heavy", "int64_edge", "empty",
                             "single_instant"}) {
        EXPECT_NE(registry.find(name), nullptr) << name;
    }
    EXPECT_EQ(registry.find("no_such_model"), nullptr);
}

TEST(GeneratorRegistry, UnknownModelAndParamErrorsNameTheCulprit) {
    try {
        generate_stream("warp_core:n=4");
        FAIL() << "expected gen_error";
    } catch (const gen_error& e) {
        EXPECT_NE(std::string(e.what()).find("unknown generator model 'warp_core'"),
                  std::string::npos);
    }
    try {
        generate_stream("uniform:rate=9");
        FAIL() << "expected gen_error";
    } catch (const gen_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("unknown param 'rate' for model 'uniform'"), std::string::npos);
        EXPECT_NE(what.find("links"), std::string::npos);  // lists the known params
    }
}

TEST(GeneratorRegistry, InvalidValuesNameValueAndParam) {
    try {
        generate_stream("uniform:n=abc");
        FAIL() << "expected gen_error";
    } catch (const gen_error& e) {
        EXPECT_NE(std::string(e.what()).find("invalid value 'abc' for param 'n'"),
                  std::string::npos);
    }
    try {
        generate_stream("replica:dataset=klingon");
        FAIL() << "expected gen_error";
    } catch (const gen_error& e) {
        EXPECT_NE(std::string(e.what()).find("'klingon'"), std::string::npos);
    }
    EXPECT_THROW(generate_stream("uniform:n=1"), gen_error);        // below minimum
    EXPECT_THROW(generate_stream("replica:scale=0"), gen_error);    // out of (0, 1]
    EXPECT_THROW(generate_stream("two_mode:low_share=1.5"), gen_error);
}

TEST(GeneratorRegistry, EveryModelDocumentsSeedParam) {
    for (const auto& model : gen::generator_registry().models()) {
        const bool has_seed =
            std::any_of(model.params.begin(), model.params.end(),
                        [](const auto& doc) { return doc.name == "seed"; });
        EXPECT_TRUE(has_seed) << model.name;
    }
}

TEST(GeneratorRegistry, CorpusCoversEveryModel) {
    std::set<std::string> models;
    for (const auto& model : gen::generator_registry().models()) models.insert(model.name);
    std::set<std::string> covered;
    for (const auto& spec : gen::default_corpus()) covered.insert(spec.model);
    EXPECT_EQ(covered, models);
}

TEST(GeneratorRegistry, FillsTruthBookkeeping) {
    const auto generated = generate_stream("uniform:n=10,links=3,T=1000", 1);
    EXPECT_EQ(generated.truth.model, "uniform");
    EXPECT_EQ(generated.truth.spec, "uniform:T=1000,links=3,n=10,seed=1");
    EXPECT_EQ(generated.truth.num_events, generated.stream.num_events());
    EXPECT_TRUE(generated.truth.verify(generated.stream).empty());
}

// --- model behaviour (through the factory) ---------------------------------

TEST(UniformModel, ExactCountsAndRange) {
    const auto stream = generate_stream("uniform:n=10,links=3,T=1000", 1).stream;
    EXPECT_EQ(stream.num_events(), 45u * 3u);  // C(10,2) pairs
    EXPECT_EQ(stream.num_nodes(), 10u);
    EXPECT_EQ(stream.period_end(), 1'000);
    EXPECT_FALSE(stream.directed());
    for (const auto& e : stream.events()) {
        EXPECT_GE(e.t, 0);
        EXPECT_LT(e.t, 1'000);
    }
}

TEST(UniformModel, EveryPairGetsItsLinks) {
    const auto stream = generate_stream("uniform:n=6,links=2,T=100", 2).stream;
    std::map<std::pair<NodeId, NodeId>, int> counts;
    for (const auto& e : stream.events()) ++counts[{e.u, e.v}];
    EXPECT_EQ(counts.size(), 15u);
    for (const auto& [pair, count] : counts) EXPECT_EQ(count, 2);
}

TEST(UniformModel, DeterministicPerSeed) {
    const auto a = generate_stream("uniform", 42).stream;
    const auto b = generate_stream("uniform", 42).stream;
    const auto c = generate_stream("uniform", 43).stream;
    ASSERT_EQ(a.num_events(), b.num_events());
    EXPECT_TRUE(std::equal(a.events().begin(), a.events().end(), b.events().begin()));
    EXPECT_FALSE(std::equal(a.events().begin(), a.events().end(), c.events().begin()));
}

TEST(UniformModel, MeanIntercontactFactMatchesMeasurement) {
    const auto generated = generate_stream("uniform:n=100,links=10,T=100000", 3);
    const double fact = generated.truth.facts.at("mean_intercontact");
    EXPECT_NEAR(fact, 100'000.0 / (10.0 * 99.0), 1e-9);
    const auto stats = compute_stream_stats(generated.stream);
    EXPECT_NEAR(stats.mean_intercontact_ticks, fact, 1.0);
}

TEST(TwoModeModel, EventsLandInCorrectSubPeriodsWithFixedRates) {
    const auto stream =
        generate_stream(
            "two_mode:n=20,alternations=4,links_high=8,links_low=2,T=4000,low_share=0.25",
            7)
            .stream;  // cycle = 1000, T1 = 750, T2 = 250

    std::size_t high_events = 0;
    std::size_t low_events = 0;
    for (const auto& e : stream.events()) {
        const Time in_cycle = e.t % 1'000;
        (in_cycle < 750 ? high_events : low_events) += 1;
    }
    // Expected (Poisson means): pairs * cycles * N1 * T1/cycle and
    // pairs * cycles * N2 * T2/cycle -> 190*4*8*0.75 = 4560, 190*4*2*0.25 = 380.
    EXPECT_NEAR(static_cast<double>(high_events), 4'560.0, 4.0 * std::sqrt(4'560.0));
    EXPECT_NEAR(static_cast<double>(low_events), 380.0, 4.0 * std::sqrt(380.0));
    // Instantaneous rates: high-period rate must be N1/N2 times the low one.
    const double high_rate = static_cast<double>(high_events) / (4.0 * 750.0);
    const double low_rate = static_cast<double>(low_events) / (4.0 * 250.0);
    EXPECT_NEAR(high_rate / low_rate, 4.0, 1.0);
}

TEST(TwoModeModel, PureModesAtExtremes) {
    const std::string base = "two_mode:n=20,alternations=2,links_high=6,links_low=3,T=2000";
    const auto high_only = generate_stream(base + ",low_share=0.0", 1).stream;
    const double expect_high = 190.0 * 6.0 * 2.0;
    EXPECT_NEAR(static_cast<double>(high_only.num_events()), expect_high,
                4.0 * std::sqrt(expect_high));

    const auto low_only = generate_stream(base + ",low_share=1.0", 1).stream;
    const double expect_low = 190.0 * 3.0 * 2.0;
    EXPECT_NEAR(static_cast<double>(low_only.num_events()), expect_low,
                4.0 * std::sqrt(expect_low));
}

TEST(TwoModeModel, RateInvariantAcrossShares) {
    // The defining property of the fixed-rate parametrization: the
    // high-period event rate does not depend on rho.
    auto high_rate_at = [](const char* share, double share_value) {
        const auto stream =
            generate_stream(std::string("two_mode:n=20,alternations=5,links_high=8,"
                                        "links_low=1,T=10000,low_share=") +
                                share,
                            3)
                .stream;
        const Time cycle = 2'000;
        const Time t1 = cycle - static_cast<Time>(std::llround(share_value * 2'000.0));
        std::size_t high_events = 0;
        for (const auto& e : stream.events()) {
            if (e.t % cycle < t1) ++high_events;
        }
        return static_cast<double>(high_events) / (5.0 * static_cast<double>(t1));
    };
    const double rate_20 = high_rate_at("0.2", 0.2);
    const double rate_70 = high_rate_at("0.7", 0.7);
    EXPECT_NEAR(rate_70 / rate_20, 1.0, 0.2);
}

TEST(ReplicaModel, SpecsMatchPublishedNumbers) {
    const auto irvine = irvine_spec();
    EXPECT_EQ(irvine.num_nodes, 1'509u);
    EXPECT_EQ(irvine.num_events, 48'000u);
    const auto facebook = facebook_spec();
    EXPECT_EQ(facebook.num_nodes, 3'387u);
    EXPECT_EQ(facebook.num_events, 11'991u);
    const auto enron = enron_spec();
    EXPECT_EQ(enron.num_nodes, 150u);
    EXPECT_EQ(enron.num_events, 15'951u);
    const auto manufacturing = manufacturing_spec();
    EXPECT_EQ(manufacturing.num_nodes, 153u);
    EXPECT_EQ(manufacturing.num_events, 82'894u);
    EXPECT_EQ(all_replica_specs().size(), 4u);
}

TEST(ReplicaModel, ActivityLevelsMatchPaper) {
    // Paper Section 5: 0.66 (Irvine), 0.12 (Facebook), 0.29 (Enron, over the
    // study year), 2.22 (Manufacturing) messages per person per day; the
    // spec-implied rates must be within 15%.
    struct Expected {
        ReplicaSpec spec;
        double activity;
    };
    const std::vector<Expected> expected{
        {irvine_spec(), 0.66}, {facebook_spec(), 0.12},
        {enron_spec(), 0.29},  {manufacturing_spec(), 2.22}};
    for (const auto& [spec, activity] : expected) {
        const double implied = static_cast<double>(spec.num_events) /
                               (static_cast<double>(spec.num_nodes) *
                                (static_cast<double>(spec.period_end) / 86'400.0));
        EXPECT_NEAR(implied, activity, activity * 0.15) << spec.name;
    }
}

TEST(ReplicaModel, GeneratedStreamHonoursTruthBounds) {
    const auto generated = generate_stream("replica:dataset=enron,scale=0.4", 9);
    const auto spec = enron_spec().scaled(0.4);
    EXPECT_EQ(generated.stream.num_nodes(), spec.num_nodes);
    EXPECT_GE(generated.stream.num_events(), spec.num_events);  // replies may overshoot
    EXPECT_LE(generated.stream.num_events(), spec.num_events + 1);
    EXPECT_TRUE(generated.stream.directed());
    EXPECT_EQ(generated.stream.period_end(), spec.period_end);
    EXPECT_TRUE(generated.truth.verify(generated.stream).empty());
}

TEST(ReplicaModel, ScaledPreservesActivity) {
    const auto full = irvine_spec();
    const auto small = full.scaled(0.25);
    const double full_activity = static_cast<double>(full.num_events) / full.num_nodes;
    const double small_activity = static_cast<double>(small.num_events) / small.num_nodes;
    EXPECT_NEAR(small_activity, full_activity, full_activity * 0.05);
    EXPECT_EQ(small.period_end, full.period_end);
    EXPECT_THROW(full.scaled(0.0), contract_error);
    EXPECT_THROW(full.scaled(1.5), contract_error);
}

TEST(ReplicaModel, PairsRepeatLikeRealCorrespondents) {
    // The contact-circle model must produce repeated pairs, not a fresh
    // random pair per message.
    const auto stream = generate_stream("replica:dataset=enron,scale=0.5", 12).stream;
    std::set<std::pair<NodeId, NodeId>> distinct;
    for (const auto& e : stream.events()) distinct.insert({e.u, e.v});
    EXPECT_LT(distinct.size(), stream.num_events() / 2);

    // Every replica passes its own report at full scale, the sparsest one
    // (facebook, under two messages per pair) included.
    for (const char* dataset : {"irvine", "facebook", "enron", "manufacturing"}) {
        const auto generated = generate_stream(std::string("replica:dataset=") + dataset);
        const auto violations = generated.truth.verify(generated.stream);
        EXPECT_TRUE(violations.empty()) << dataset << ": " << ::testing::PrintToString(violations);
    }

    // A stream of facebook's shape that draws a fresh random pair for every
    // message repeats almost no pair, and the invariant rejects it.
    const auto facebook = generate_stream("replica:dataset=facebook");
    const LinkStream& real = facebook.stream;
    Rng rng(5);
    std::vector<Event> events;
    for (std::size_t i = 0; i < real.num_events(); ++i) {
        const auto u = static_cast<NodeId>(rng.uniform_index(real.num_nodes()));
        auto v = static_cast<NodeId>(rng.uniform_index(real.num_nodes() - 1));
        if (v >= u) ++v;
        events.push_back({u, v, rng.uniform_int(0, real.period_end() - 1)});
    }
    const LinkStream fresh(std::move(events), real.num_nodes(), real.period_end(),
                           real.directed());
    const auto violations = facebook.truth.verify(fresh);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations.front().rfind("invariant 'pairs_repeat_like_real_correspondents'", 0),
              0u)
        << violations.front();
}

// --- golden parity with the pre-factory generators -------------------------
//
// The factory's paper models must reproduce the legacy streams bit for bit:
// these checksums were captured from the last pre-factory revision.

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t stream_checksum(const LinkStream& s) {
    std::uint64_t h = 14695981039346656037ULL;
    const std::uint64_t n = s.num_nodes();
    const std::int64_t t_end = s.period_end();
    const std::uint64_t m = s.num_events();
    const unsigned char directed = s.directed() ? 1 : 0;
    h = fnv1a(h, &n, 8);
    h = fnv1a(h, &t_end, 8);
    h = fnv1a(h, &m, 8);
    h = fnv1a(h, &directed, 1);
    for (const auto& e : s.events()) {
        const std::uint32_t u = e.u;
        const std::uint32_t v = e.v;
        const std::int64_t t = e.t;
        h = fnv1a(h, &u, 4);
        h = fnv1a(h, &v, 4);
        h = fnv1a(h, &t, 8);
    }
    return h;
}

TEST(GoldenParity, FactoryReproducesLegacyStreamsBitwise) {
    struct Golden {
        const char* spec;
        std::uint64_t seed;
        std::uint64_t checksum;
        std::uint64_t min_events;  // sanity anchor next to the opaque hash
    };
    const Golden golden[] = {
        {"uniform", 42, 0x5f003f9ad7ef4f70ULL, 49'500},
        {"uniform:n=10,links=3,T=1000", 1, 0xc05aae3f794dd93aULL, 135},
        {"two_mode", 7, 0x3eb48929b18fd3b8ULL, 321'215},
        {"two_mode:n=20,alternations=4,links_high=8,links_low=2,T=4000,low_share=0.25", 7,
         0x248a4489a6ee58fbULL, 4'842},
        {"replica:dataset=enron,scale=0.2", 7, 0x4ef730e3a761a5ceULL, 3'190},
        {"replica:dataset=manufacturing,scale=0.1", 9, 0x944a9d491a097663ULL, 8'289},
    };
    for (const auto& g : golden) {
        const auto stream = generate_stream(g.spec, g.seed).stream;
        EXPECT_EQ(stream_checksum(stream), g.checksum) << g.spec;
        EXPECT_EQ(stream.num_events(), g.min_events) << g.spec;
    }
}

// The former [[deprecated]] entry points (generate_uniform_stream,
// generate_two_mode_stream, generate_replica) were one-line forwards to the
// typed-spec implementations the registry's paper models call; their callers
// now spell a registry spec.  Each former shim call must still yield its
// golden stream, through the typed path and through the registry alike.
TEST(GoldenParity, DeprecatedShimsMatchFactoryBitwise) {
    {
        UniformStreamSpec spec;
        spec.num_nodes = 10;
        spec.links_per_pair = 3;
        spec.period_end = 1'000;
        const auto typed = detail::uniform_stream_impl(spec, 1);
        const auto factory = generate_stream("uniform:n=10,links=3,T=1000", 1).stream;
        EXPECT_EQ(stream_checksum(typed), 0xc05aae3f794dd93aULL);
        EXPECT_EQ(stream_checksum(factory), stream_checksum(typed));
    }
    {
        TwoModeSpec spec;
        spec.num_nodes = 20;
        spec.alternations = 4;
        spec.links_high = 8;
        spec.links_low = 2;
        spec.period_end = 4'000;
        spec.low_activity_share = 0.25;
        const auto typed = detail::two_mode_stream_impl(spec, 7);
        const auto factory =
            generate_stream("two_mode:n=20,alternations=4,links_high=8,links_low=2,"
                            "T=4000,low_share=0.25",
                            7)
                .stream;
        EXPECT_EQ(stream_checksum(typed), 0x248a4489a6ee58fbULL);
        EXPECT_EQ(stream_checksum(factory), stream_checksum(typed));
    }
    {
        const auto typed = detail::replica_impl(enron_spec().scaled(0.2), 7);
        const auto factory = generate_stream("replica:dataset=enron,scale=0.2", 7).stream;
        EXPECT_EQ(stream_checksum(typed), 0x4ef730e3a761a5ceULL);
        EXPECT_EQ(stream_checksum(factory), stream_checksum(typed));
    }
}

// --- activity-model building blocks ----------------------------------------

TEST(CircadianSampler, FlatProfileIsUniform) {
    Rng rng(5);
    CircadianSampler sampler(86'400 * 7, CircadianSampler::flat());
    double sum = 0.0;
    const int samples = 50'000;
    for (int i = 0; i < samples; ++i) {
        const Time t = sampler.sample(rng);
        ASSERT_GE(t, 0);
        ASSERT_LT(t, 86'400 * 7);
        sum += static_cast<double>(t);
    }
    EXPECT_NEAR(sum / samples / (86'400.0 * 7.0), 0.5, 0.02);
}

TEST(CircadianSampler, OfficeHoursSuppressNight) {
    Rng rng(6);
    CircadianSampler sampler(86'400 * 7, CircadianSampler::office_hours());
    int night = 0;
    int afternoon = 0;
    const int samples = 50'000;
    for (int i = 0; i < samples; ++i) {
        const Time hour = (sampler.sample(rng) % 86'400) / 3'600;
        if (hour >= 1 && hour < 5) ++night;
        if (hour >= 13 && hour < 17) ++afternoon;
    }
    EXPECT_LT(night * 5, afternoon);  // afternoon at least 5x night activity
}

TEST(CircadianSampler, PartialLastDayNeverOverflows) {
    Rng rng(7);
    CircadianSampler sampler(100'000, CircadianSampler::office_hours());  // 1.16 days
    for (int i = 0; i < 20'000; ++i) {
        EXPECT_LT(sampler.sample(rng), 100'000);
    }
}

TEST(ZipfWeights, NormalizedShapeAndShuffle) {
    Rng rng(8);
    const auto weights = zipf_weights(100, 1.2, rng);
    ASSERT_EQ(weights.size(), 100u);
    double max_w = 0.0;
    for (double w : weights) {
        EXPECT_GT(w, 0.0);
        max_w = std::max(max_w, w);
    }
    EXPECT_DOUBLE_EQ(max_w, 1.0);  // rank-1 weight, wherever it was shuffled
}

}  // namespace
}  // namespace natscale

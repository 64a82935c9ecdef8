// Corpus-wide property harness: every registered generator model, through
// every execution configuration the repo promises bit-identical results
// for.  For each spec of gen::default_corpus():
//
//   * the GroundTruth report verifies against the generated stream,
//   * DeltaSweepEngine results are bitwise identical across {1, 4}
//     threads, and the dense and sparse reachability engines, called
//     directly, emit identical trip sequences at every period of the grid
//     (select_backend picks dense for every corpus spec, so the sweep alone
//     would never reach the sparse engine),
//   * a StreamSession fed the same events reports bitwise identically to
//     the cold batch sweep (batch-vs-online parity),
//   * the stream round-trips bitwise through the .natbin format.
//
// The adversarial models (dup_heavy, int64_edge, empty, single_instant)
// run through the same sweep, which is the point: duplicates, period ends
// near 2^62, and single-instant streams must not perturb any backend.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "core/delta_grid.hpp"
#include "core/delta_sweep.hpp"
#include "gen/registry.hpp"
#include "linkstream/aggregation.hpp"
#include "linkstream/binary_io.hpp"
#include "natscale/session.hpp"
#include "temporal/sparse_reachability.hpp"
#include "testing/temp_files.hpp"

namespace natscale {
namespace {

using testing::TempFileGuard;
using testing::temp_path;

void expect_identical_point(const std::string& context, const DeltaPoint& a,
                            const DeltaPoint& b) {
    EXPECT_EQ(a.delta, b.delta) << context;
    EXPECT_EQ(a.num_trips, b.num_trips) << context;
    EXPECT_EQ(a.occupancy_mean, b.occupancy_mean) << context;
    EXPECT_EQ(a.scores.mk_proximity, b.scores.mk_proximity) << context;
    EXPECT_EQ(a.scores.std_deviation, b.scores.std_deviation) << context;
    EXPECT_EQ(a.scores.variation_coefficient, b.scores.variation_coefficient) << context;
    EXPECT_EQ(a.scores.shannon_entropy, b.scores.shannon_entropy) << context;
    EXPECT_EQ(a.scores.cre, b.scores.cre) << context;
}

/// The sweep grid for one corpus spec.  int64_edge lives at T ~ 2^62, where
/// a delta of 1 would mean 2^62 windows; its grid starts at T/16 (<= 16
/// windows per delta), which is also the regime the model exists to stress.
std::vector<Time> corpus_grid(const gen::GenSpec& spec, const LinkStream& stream) {
    if (spec.model == "int64_edge") {
        return geometric_delta_grid(stream.period_end() / 16, stream.period_end(), 6);
    }
    return geometric_delta_grid(1, stream.period_end(), 8);
}

TEST(GenCorpus, GroundTruthHoldsForEverySpec) {
    for (const auto& spec : gen::default_corpus()) {
        const auto generated = gen::generate_stream(spec);
        const auto violations = generated.truth.verify(generated.stream);
        EXPECT_TRUE(violations.empty())
            << gen::to_string(spec) << ": "
            << (violations.empty() ? "" : violations.front());
    }
}

TEST(GenCorpus, SweepParityAcrossBackendsAndThreads) {
    for (const auto& spec : gen::default_corpus()) {
        if (spec.model == "empty") continue;  // sweeps reject empty streams
        const std::string context = gen::to_string(spec);
        const auto stream = gen::generate_stream(spec).stream;
        const auto grid = corpus_grid(spec, stream);

        DeltaSweepOptions baseline_options;
        baseline_options.num_threads = 1;
        DeltaSweepEngine baseline(stream, baseline_options);
        const auto reference = baseline.evaluate(grid);

        DeltaSweepOptions options;
        options.num_threads = 4;
        DeltaSweepEngine engine(stream, options);
        const auto points = engine.evaluate(grid);
        ASSERT_EQ(points.size(), reference.size()) << context;
        for (std::size_t i = 0; i < points.size(); ++i) {
            expect_identical_point(context + " 4 threads", points[i], reference[i]);
        }

        TemporalReachability dense;
        SparseTemporalReachability sparse;
        for (const Time delta : grid) {
            const GraphSeries series = aggregate(stream, delta);
            std::vector<MinimalTrip> dense_trips;
            std::vector<MinimalTrip> sparse_trips;
            dense.scan_series(series, [&](const MinimalTrip& t) { dense_trips.push_back(t); });
            sparse.scan_series(series, [&](const MinimalTrip& t) { sparse_trips.push_back(t); });
            EXPECT_EQ(sparse_trips, dense_trips) << context << " delta=" << delta;
        }
    }
}

TEST(GenCorpus, BatchAndOnlineSessionsAgreeBitwise) {
    for (const auto& spec : gen::default_corpus()) {
        if (spec.model == "empty") continue;  // a session needs events to report on
        const std::string context = gen::to_string(spec);
        const auto stream = gen::generate_stream(spec).stream;
        const auto grid = corpus_grid(spec, stream);

        SessionOptions options;
        options.config.num_threads = 1;
        options.grid = grid;
        options.ingest.period_end = stream.period_end();
        StreamSession session(stream.num_nodes(), stream.directed(), options);
        session.append(std::span<const Event>(stream.events()));
        session.close();
        const OnlineReport online = session.report(/*sealed_only=*/true);
        EXPECT_EQ(online.events_covered, stream.num_events()) << context;

        DeltaSweepEngine cold(stream, {});
        const auto batch = cold.evaluate(grid);
        ASSERT_EQ(online.points.size(), batch.size()) << context;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            expect_identical_point(context + " batch-vs-online", online.points[i],
                                   batch[i]);
        }
    }
}

TEST(GenCorpus, NatbinRoundTripsEverySpecBitwise) {
    for (const auto& spec : gen::default_corpus()) {
        if (spec.model == "empty") continue;  // the natbin format rejects empty streams
        const std::string context = gen::to_string(spec);
        const auto stream = gen::generate_stream(spec).stream;

        const std::string path = temp_path("corpus_" + spec.model + ".natbin");
        TempFileGuard guard(path);
        save_natbin(path, stream);
        const auto loaded = open_natbin(path);

        EXPECT_EQ(loaded.stream.num_nodes(), stream.num_nodes()) << context;
        EXPECT_EQ(loaded.stream.period_end(), stream.period_end()) << context;
        EXPECT_EQ(loaded.stream.directed(), stream.directed()) << context;
        ASSERT_EQ(loaded.stream.num_events(), stream.num_events()) << context;
        const auto a = stream.events();
        const auto b = loaded.stream.events();
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i], b[i]) << context << " event " << i;
        }
    }
}

TEST(GenCorpus, AdversarialShapesAreAsDeclared) {
    const auto dup = gen::generate_stream("dup_heavy:n=10,T=1000,instants=4,"
                                          "pairs_per_instant=20,copies=4");
    EXPECT_EQ(dup.stream.num_distinct_timestamps(), 4u);
    EXPECT_EQ(dup.stream.num_events(), 4u * 20u * 4u);

    const auto rim = gen::generate_stream("int64_edge:n=10,events=120,width=2048");
    EXPECT_EQ(rim.stream.period_end(), Time{1} << 62);
    EXPECT_EQ(rim.stream.num_events(), 120u);

    const auto none = gen::generate_stream("empty:n=8,T=1000");
    EXPECT_TRUE(none.stream.empty());
    EXPECT_EQ(none.stream.num_nodes(), 8u);
    EXPECT_EQ(none.stream.period_end(), 1'000);
    EXPECT_TRUE(none.truth.verify(none.stream).empty());

    const auto instant = gen::generate_stream("single_instant:n=10,T=1000,events=60");
    EXPECT_EQ(instant.stream.num_distinct_timestamps(), 1u);
    EXPECT_EQ(instant.stream.num_events(), 60u);
}

}  // namespace
}  // namespace natscale

// Unified observability layer (src/obs, docs/observability.md): registry
// semantics (interning, cross-thread merge, bucket edges), snapshot
// serialization (including the schema-1 seq contract), span emission
// through the trace sink, read back from its file — and the load-bearing
// invariant of the whole design: instrumentation is purely observational,
// so a traced sweep is bit-identical to an untraced one.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/export.hpp"
#include "core/saturation.hpp"
#include "natscale/report_schema.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/protocol.hpp"
#include "testing/temp_files.hpp"
#include "testing/trace_reader.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace natscale {
namespace {

// --- metrics registry -------------------------------------------------------

TEST(ObsMetrics, InterningReturnsStableIdentity) {
    obs::Counter& a = obs::counter("test.obs.intern");
    obs::Counter& b = obs::counter("test.obs.intern");
    EXPECT_EQ(&a, &b);
    obs::Gauge& g1 = obs::gauge("test.obs.intern");  // separate namespace per kind
    obs::Gauge& g2 = obs::gauge("test.obs.intern");
    EXPECT_EQ(&g1, &g2);
}

TEST(ObsMetrics, CounterMergesAcrossThreads) {
    obs::Counter& counter = obs::counter("test.obs.cross_thread");
    const std::uint64_t before = counter.read();
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 10'000;
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&counter] {
            for (std::uint64_t n = 0; n < kPerThread; ++n) counter.add();
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(counter.read(), before + kThreads * kPerThread);
}

TEST(ObsMetrics, GaugeKeepsLastWrite) {
    obs::Gauge& gauge = obs::gauge("test.obs.gauge");
    gauge.set(-42);
    EXPECT_EQ(gauge.read(), -42);
    gauge.add(50);
    EXPECT_EQ(gauge.read(), 8);
}

TEST(ObsMetrics, HistogramBucketEdges) {
    using H = obs::LatencyHistogram;
    EXPECT_EQ(H::bucket_of(0), 0u);
    EXPECT_EQ(H::bucket_of(1), 1u);
    EXPECT_EQ(H::bucket_of(2), 2u);
    EXPECT_EQ(H::bucket_of(3), 2u);   // [2, 4)
    EXPECT_EQ(H::bucket_of(4), 3u);   // [4, 8)
    EXPECT_EQ(H::bucket_of(7), 3u);
    EXPECT_EQ(H::bucket_of(1023), 10u);
    EXPECT_EQ(H::bucket_of(1024), 11u);
    // The last bucket is open-ended: nothing ever indexes out of range.
    EXPECT_EQ(H::bucket_of(~std::uint64_t{0}), H::kBuckets - 1);
}

TEST(ObsMetrics, HistogramRecordsCountAndSum) {
    obs::LatencyHistogram& hist = obs::histogram("test.obs.hist");
    const std::uint64_t count0 = hist.read_count();
    const std::uint64_t sum0 = hist.read_sum_nanos();
    hist.record(0);
    hist.record(5);
    hist.record(5);
    hist.record(1'000'000);
    EXPECT_EQ(hist.read_count(), count0 + 4);
    EXPECT_EQ(hist.read_sum_nanos(), sum0 + 1'000'010);
    const auto buckets = hist.read_buckets();
    EXPECT_GE(buckets[obs::LatencyHistogram::bucket_of(5)], 2u);
}

TEST(ObsMetrics, SnapshotIsSortedAndComplete) {
    obs::counter("test.obs.snap.a").add(3);
    obs::counter("test.obs.snap.b").add(7);
    obs::gauge("test.obs.snap.g").set(11);
    const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
    EXPECT_TRUE(std::is_sorted(
        snapshot.counters.begin(), snapshot.counters.end(),
        [](const auto& x, const auto& y) { return x.name < y.name; }));
    const auto find = [&](const std::string& name) -> const std::uint64_t* {
        for (const auto& c : snapshot.counters) {
            if (c.name == name) return &c.value;
        }
        return nullptr;
    };
    ASSERT_NE(find("test.obs.snap.a"), nullptr);
    EXPECT_GE(*find("test.obs.snap.a"), 3u);
    ASSERT_NE(find("test.obs.snap.b"), nullptr);
}

TEST(ObsMetrics, SnapshotJsonCarriesSchemaAndOptionalSeq) {
    obs::counter("test.obs.json").add();
    const obs::MetricsSnapshot snapshot = obs::metrics_snapshot();
    const std::string without = metrics_snapshot_json(snapshot);
    EXPECT_NE(without.find("\"schema\":1"), std::string::npos);
    EXPECT_NE(without.find("\"report\":\"metrics_snapshot\""), std::string::npos);
    EXPECT_NE(without.find("\"test.obs.json\""), std::string::npos);
    EXPECT_EQ(without.find("\"seq\""), std::string::npos);
    const std::string with = metrics_snapshot_json(snapshot, 12);
    EXPECT_NE(with.find("\"seq\":12"), std::string::npos);
    // Serialization is deterministic: same snapshot, same bytes.
    EXPECT_EQ(without, metrics_snapshot_json(snapshot));
}

// --- schema-1 seq envelope --------------------------------------------------

TEST(ObsReportSchema, SeqFieldIsAdditiveAndOptional) {
    Histogram01 histogram(16);
    histogram.add(0.25);
    ReportContext context;
    context.events = 1;
    const std::string without = histogram_json(histogram, 10, context);
    EXPECT_EQ(without.find("\"seq\""), std::string::npos);
    EXPECT_NE(without.find("\"schema\":1"), std::string::npos);  // schema unchanged
    context.seq = 7;
    const std::string with = histogram_json(histogram, 10, context);
    EXPECT_NE(with.find("\"seq\":7"), std::string::npos);
}

// --- tracing ----------------------------------------------------------------

TEST(ObsTrace, DormantSpanIsInactiveAndCheap) {
    ASSERT_FALSE(obs::tracing_enabled());
    obs::Span span("test.dormant");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.id(), 0u);
    span.attr("ignored", std::int64_t{1});  // must be a harmless no-op
}

TEST(ObsTrace, SpansNestAndCarryAttributes) {
    const std::string path = testing::temp_path("obs_nest.trace.json");
    testing::TempFileGuard guard(path);
    {
        obs::TraceSink sink(path);
        obs::install_trace_sink(&sink);
        {
            obs::Span outer("test.outer");
            outer.attr("delta", std::int64_t{42});
            {
                obs::Span inner("test.inner");
                inner.attr("shard", std::uint64_t{3});
                inner.attr("name", std::string_view("stream-a"));
                EXPECT_TRUE(inner.active());
                EXPECT_NE(inner.id(), outer.id());
            }
        }
        obs::install_trace_sink(nullptr);
        sink.close();
    }
    const std::vector<testing::TraceEvent> events = testing::read_trace(path);
    ASSERT_EQ(events.size(), 2u);  // inner completes first
    const testing::TraceEvent& inner = events[0];
    const testing::TraceEvent& outer = events[1];
    EXPECT_EQ(inner.name, "test.inner");
    EXPECT_EQ(outer.name, "test.outer");
    EXPECT_EQ(inner.parent, outer.id);  // nesting captured
    EXPECT_EQ(outer.parent, 0u);
    using Args = std::vector<std::pair<std::string, std::string>>;
    EXPECT_EQ(inner.args, (Args{{"shard", "3"}, {"name", "stream-a"}}));
    EXPECT_EQ(outer.args, (Args{{"delta", "42"}}));
}

TEST(ObsTrace, DormantParentIsSkippedNotMisattributed) {
    const std::string path = testing::temp_path("obs_skip.trace.json");
    testing::TempFileGuard guard(path);
    obs::TraceSink sink(path);
    {
        // Spans pin the sink installed at their birth: these two are born
        // dormant, so they never join the parent chain — an active child
        // constructed later links past them to the nearest TRACED ancestor
        // (here: none), never to a span that will not appear in the trace.
        obs::Span dormant_outer("test.dormant_outer");
        obs::Span dormant_mid("test.dormant_mid");
        obs::install_trace_sink(&sink);
        obs::Span child("test.child");
        EXPECT_TRUE(child.active());
        EXPECT_FALSE(dormant_mid.active());
    }
    obs::install_trace_sink(nullptr);
    sink.close();
    const auto events = testing::read_trace(path);
    ASSERT_EQ(events.size(), 1u);  // only the child was born under the sink
    EXPECT_EQ(events[0].name, "test.child");
    EXPECT_EQ(events[0].parent, 0u);
}

TEST(ObsTrace, TraceFileIsOneWellFormedJsonArray) {
    const std::string path = testing::temp_path("obs_file.trace.json");
    testing::TempFileGuard guard(path);
    {
        obs::TraceSink sink(path);
        obs::install_trace_sink(&sink);
        for (int i = 0; i < 3; ++i) {
            obs::Span span("test.file_span");
            span.attr("i", std::int64_t{i});
        }
        obs::install_trace_sink(nullptr);
        sink.close();
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.front(), '[');
    EXPECT_EQ(text.find_last_not_of(" \n"), text.size() - std::string("]\n").size());
    EXPECT_EQ(text[text.find_last_not_of(" \n")], ']');
    // One complete-span event per Span, each on its own line.
    const auto count = [&text](const std::string& needle) {
        std::size_t total = 0;
        for (std::size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1)) {
            ++total;
        }
        return total;
    };
    EXPECT_EQ(count("\"ph\":"), 3u);
    EXPECT_EQ(count("\"ph\":\"X\""), 3u);
    const auto events = testing::read_trace(path);
    ASSERT_EQ(events.size(), 3u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].name, "test.file_span");
        EXPECT_EQ(events[i].args.at(0).second, std::to_string(i));
    }
}

TEST(ObsTrace, PoolThreadSpansNestUnderTheCallersSpan) {
    // A span opened inside a parallel_for body links to the span open on
    // the thread that called parallel_for — also when a pool thread runs
    // the body, where the per-thread parent stack alone would say "none".
    const std::string path = testing::temp_path("obs_pool.trace.json");
    testing::TempFileGuard guard(path);
    constexpr std::size_t kTasks = 64;
    obs::TraceSink sink(path);
    ThreadPool pool(4);
    std::uint64_t outer_id = 0;
    obs::install_trace_sink(&sink);
    {
        obs::Span outer("test.pool_outer");
        outer_id = outer.id();
        pool.parallel_for(kTasks, [](std::size_t) {
            obs::Span task("test.pool_task");
            // Long enough that the pool threads claim tasks too.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        });
    }
    obs::install_trace_sink(nullptr);
    sink.close();

    const std::size_t caller_thread = obs::thread_ordinal();
    std::size_t tasks = 0;
    std::size_t on_pool_threads = 0;
    for (const testing::TraceEvent& record : testing::read_trace(path)) {
        if (record.name != "test.pool_task") continue;
        ++tasks;
        if (record.thread != caller_thread) ++on_pool_threads;
        EXPECT_EQ(record.parent, outer_id) << "task on thread " << record.thread;
    }
    EXPECT_EQ(tasks, kTasks);
    EXPECT_GT(on_pool_threads, 0u);  // the case the per-thread stack misses
}

// --- bit-identity with tracing on ------------------------------------------

LinkStream corpus_stream(std::uint64_t seed, NodeId nodes, Time period,
                         std::size_t count) {
    Rng rng(seed);
    std::vector<Event> events;
    events.reserve(count);
    Time t = 0;
    while (events.size() < count) {
        t += rng.bernoulli(0.3) ? 0 : rng.uniform_int(1, period / 50 + 1);
        if (t >= period) t = period - 1;
        auto u = static_cast<NodeId>(rng.uniform_index(nodes));
        auto v = static_cast<NodeId>(rng.uniform_index(nodes));
        if (u == v) v = (v + 1) % nodes;
        if (u > v) std::swap(u, v);
        events.push_back({u, v, t});
    }
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        return a.t < b.t || (a.t == b.t && (a.u < b.u || (a.u == b.u && a.v < b.v)));
    });
    return LinkStream(std::move(events), nodes, period, false);
}

TEST(ObsParity, SweepIsBitIdenticalWithTracingOn) {
    // The acceptance invariant: instrumentation is purely observational.
    // The full refined search over two different streams must serialize to
    // the very same bytes with a live trace sink as without one.
    for (const std::uint64_t seed : {11u, 97u}) {
        const LinkStream stream = corpus_stream(seed, 30, 2'000, 1'500);
        SweepConfig options;
        options.coarse_points = 8;
        options.refine_rounds = 1;

        ASSERT_FALSE(obs::tracing_enabled());
        const SaturationResult untraced = find_saturation_scale(stream, options);

        const std::string path = testing::temp_path("obs_parity.trace.json");
        testing::TempFileGuard guard(path);
        obs::TraceSink sink(path);
        obs::install_trace_sink(&sink);
        const SaturationResult traced = find_saturation_scale(stream, options);
        obs::install_trace_sink(nullptr);
        sink.close();

        EXPECT_EQ(saturation_result_to_json(traced),
                  saturation_result_to_json(untraced));
        EXPECT_FALSE(testing::read_trace(path).empty());  // the sweep really was traced
    }
}

TEST(ObsTrace, SweepSpansNestUnderTheirSearchRound) {
    // Every evaluated period of a multi-threaded search is exactly one
    // sweep.delta span, hanging under the coarse-grid or refinement-round
    // span that dispatched it: the 8-point coarse grid is wider than the
    // 4-thread pool, the three-point refinement grids are narrower, and both
    // run one task per period.
    const LinkStream stream = corpus_stream(5, 200, 3'000, 2'000);
    SweepConfig options;
    options.coarse_points = 8;
    options.refine_rounds = 2;
    options.refine_points = 3;
    options.num_threads = 4;
    const std::string path = testing::temp_path("obs_sweep_tree.trace.json");
    testing::TempFileGuard guard(path);
    const obs::Counter& deltas_evaluated = obs::counter("sweep.deltas_evaluated");
    obs::TraceSink sink(path);
    obs::install_trace_sink(&sink);
    const std::uint64_t evaluated_before = deltas_evaluated.read();
    find_saturation_scale(stream, options);
    const std::uint64_t evaluated = deltas_evaluated.read() - evaluated_before;
    obs::install_trace_sink(nullptr);
    sink.close();

    const std::vector<testing::TraceEvent> records = testing::read_trace(path);
    std::vector<std::uint64_t> coarse;
    std::vector<std::uint64_t> rounds;
    for (const testing::TraceEvent& record : records) {
        const std::string& name = record.name;
        if (name == "saturation.coarse_grid") coarse.push_back(record.id);
        if (name == "saturation.round") rounds.push_back(record.id);
    }
    ASSERT_EQ(coarse.size(), 1u);
    ASSERT_FALSE(rounds.empty());
    std::size_t under_coarse = 0;
    std::size_t under_rounds = 0;
    std::vector<std::pair<std::uint64_t, std::string>> periods;  // (round span, delta)
    for (const testing::TraceEvent& record : records) {
        if (record.name != "sweep.delta") continue;
        if (record.parent == coarse.front()) {
            ++under_coarse;
        } else {
            EXPECT_NE(std::find(rounds.begin(), rounds.end(), record.parent), rounds.end())
                << "sweep.delta span " << record.id << " has parent " << record.parent;
            ++under_rounds;
        }
        const auto delta = std::find_if(record.args.begin(), record.args.end(),
                                        [](const auto& arg) { return arg.first == "delta"; });
        ASSERT_NE(delta, record.args.end()) << "sweep.delta span " << record.id;
        periods.emplace_back(record.parent, delta->second);
    }
    EXPECT_EQ(under_coarse, options.coarse_points);
    EXPECT_GT(under_rounds, 0u);
    EXPECT_EQ(under_coarse + under_rounds, evaluated);
    // No period of a round is traced twice.
    std::sort(periods.begin(), periods.end());
    EXPECT_EQ(std::adjacent_find(periods.begin(), periods.end()), periods.end());
}

// --- stats protocol message -------------------------------------------------

TEST(ObsProtocol, StatsResultRoundTripsThroughTheCodec) {
    service::StatsResult result;
    result.json = metrics_snapshot_json(obs::metrics_snapshot(), 3);
    const std::vector<std::byte> payload = service::encode_stats_result(result);
    const service::StatsResult parsed = service::parse_stats_result(payload);
    EXPECT_EQ(parsed.json, result.json);

    // Through the framing layer too, as the wire would carry it.
    std::vector<std::byte> bytes;
    service::append_frame(bytes, service::MessageType::stats_result, payload);
    service::FrameReader reader;
    reader.feed(bytes);
    service::Frame frame;
    ASSERT_TRUE(reader.next(frame));
    EXPECT_EQ(frame.type, service::MessageType::stats_result);
    EXPECT_EQ(service::parse_stats_result(frame.payload).json, result.json);
}

TEST(ObsProtocol, EmptyStatsResultIsValid) {
    const service::StatsResult parsed = service::parse_stats_result({});
    EXPECT_TRUE(parsed.json.empty());
}

}  // namespace
}  // namespace natscale

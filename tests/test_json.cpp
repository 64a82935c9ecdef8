// Tests for the JSON writer and the result exporters.
#include <gtest/gtest.h>

#include "core/export.hpp"
#include "gen/registry.hpp"
#include "linkstream/stream_stats.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

namespace natscale {
namespace {

TEST(JsonWriter, FlatObject) {
    JsonWriter json;
    json.begin_object()
        .field("name", "irvine")
        .field("gamma", std::int64_t{64800})
        .field("prox", 0.25)
        .field("split", true)
        .end_object();
    EXPECT_EQ(json.str(), R"({"name":"irvine","gamma":64800,"prox":0.25,"split":true})");
}

TEST(JsonWriter, NestedStructures) {
    JsonWriter json;
    json.begin_object();
    json.begin_array("xs");
    json.value(std::int64_t{1});
    json.value(2.5);
    json.begin_object().field("k", std::int64_t{3}).end_object();
    json.end_array();
    json.begin_object("inner").end_object();
    json.end_object();
    EXPECT_EQ(json.str(), R"({"xs":[1,2.5,{"k":3}],"inner":{}})");
}

TEST(JsonWriter, EscapesStrings) {
    JsonWriter json;
    json.begin_object().field("s", "a\"b\\c\nd\te").end_object();
    EXPECT_EQ(json.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull) {
    JsonWriter json;
    json.begin_object().field("x", std::numeric_limits<double>::infinity()).end_object();
    EXPECT_EQ(json.str(), R"({"x":null})");
}

TEST(JsonWriter, MisuseThrows) {
    {
        JsonWriter json;
        EXPECT_THROW(json.field("k", 1.0), contract_error);  // no open object
    }
    {
        JsonWriter json;
        json.begin_object();
        EXPECT_THROW(json.end_array(), contract_error);  // mismatched close
    }
    {
        JsonWriter json;
        json.begin_object();
        EXPECT_THROW(json.str(), contract_error);  // unclosed nesting
    }
    {
        JsonWriter json;
        json.begin_object();
        EXPECT_THROW(json.value(1.0), contract_error);  // bare value in object
    }
}

TEST(Export, SaturationResultRoundTripsKeyFields) {
    const auto stream = gen::generate_stream("uniform:n=10,links=5,T=2000", 5).stream;
    SweepConfig options;
    options.coarse_points = 12;
    options.refine_rounds = 0;
    options.histogram_bins = 100;
    const auto result = find_saturation_scale(stream, options);

    const std::string text = saturation_result_to_json(result);
    EXPECT_NE(text.find("\"gamma_ticks\":" + std::to_string(result.gamma)),
              std::string::npos);
    EXPECT_NE(text.find("\"metric\":\"M-K proximity\""), std::string::npos);
    EXPECT_NE(text.find("\"curve\":["), std::string::npos);
    EXPECT_NE(text.find("\"icd_at_gamma\":["), std::string::npos);
    // Every evaluated delta appears.
    for (const auto& point : result.curve) {
        EXPECT_NE(text.find("\"delta\":" + std::to_string(point.delta)), std::string::npos);
    }
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
}

TEST(Export, SegmentedSaturationJson) {
    SegmentedSaturation result;
    result.split = true;
    result.gamma_high = 10;
    result.gamma_low = 100;
    result.recommended = 10;
    result.segments.push_back({0, 500, true, 0.5});
    result.segments.push_back({500, 1'000, false, 0.01});
    const std::string text = segmented_saturation_to_json(result);
    EXPECT_NE(text.find("\"split\":true"), std::string::npos);
    EXPECT_NE(text.find("\"gamma_high_ticks\":10"), std::string::npos);
    EXPECT_NE(text.find("\"segments\":[{"), std::string::npos);
    EXPECT_NE(text.find("\"high_activity\":false"), std::string::npos);
}

TEST(StreamStatsExt, InterEventGaps) {
    // Node 0 events at 0, 10, 30; node 1 at 0, 10; node 2 at 30.
    LinkStream stream({{0, 1, 0}, {0, 1, 10}, {0, 2, 30}}, 3, 40);
    auto gaps = inter_event_gaps(stream);
    std::sort(gaps.begin(), gaps.end());
    // Gaps: node0: 10, 20; node1: 10 -> {10, 10, 20}.
    ASSERT_EQ(gaps.size(), 3u);
    EXPECT_EQ(gaps[0], 10);
    EXPECT_EQ(gaps[1], 10);
    EXPECT_EQ(gaps[2], 20);
}

TEST(StreamStatsExt, BurstinessSignsMatchTheory) {
    // Periodic gaps -> B = -1; heavy bursts -> B > 0.
    std::vector<Event> periodic;
    for (int i = 0; i < 100; ++i) periodic.push_back({0, 1, i * 10});
    LinkStream regular(std::move(periodic), 2, 1'000);
    EXPECT_NEAR(burstiness(regular), -1.0, 1e-9);

    std::vector<Event> bursty;
    for (int i = 0; i < 50; ++i) bursty.push_back({0, 1, i});              // burst
    for (int i = 0; i < 5; ++i) bursty.push_back({0, 1, 10'000 + i * 10'000});  // sparse
    LinkStream spiky(std::move(bursty), 2, 100'000);
    EXPECT_GT(burstiness(spiky), 0.3);

    LinkStream tiny({{0, 1, 5}}, 2, 10);
    EXPECT_DOUBLE_EQ(burstiness(tiny), 0.0);  // fewer than 2 gaps
}

}  // namespace
}  // namespace natscale

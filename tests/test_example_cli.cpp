// The shared example-CLI parsers (examples/example_cli.hpp) must reject
// junk with exit code 2 and an error that names BOTH the offending value
// and the flag it was passed to — the regression locked in here is the
// flag name appearing in the message (it used to say only the value).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "examples/example_cli.hpp"

namespace natscale::examples {
namespace {

TEST(ExampleCliParsers, ParseCountAcceptsPlainIntegers) {
    EXPECT_EQ(parse_count("--points=48", "--points="), 48u);
    EXPECT_EQ(parse_count("--threads=0", "--threads="), 0u);
}

TEST(ExampleCliParsers, OptionValueStripsTheFlag) {
    EXPECT_EQ(option_value("--token-file=/tmp/x", "--token-file="), "/tmp/x");
    EXPECT_EQ(option_value("--close", "--close"), "");
}

TEST(ExampleCliParsers, ParseMetricAndFormat) {
    EXPECT_EQ(parse_metric("--metric=cre", "--metric="), UniformityMetric::cre);
    EXPECT_EQ(parse_format("--format=auto", "--format=", true), FormatChoice::automatic);
    EXPECT_EQ(parse_format("--to=natbin", "--to=", false), FormatChoice::natbin);
}

using ExampleCliDeath = ::testing::Test;

TEST(ExampleCliDeath, JunkCountNamesTheFlag) {
    EXPECT_EXIT(parse_count("--points=abc", "--points="),
                ::testing::ExitedWithCode(2), "invalid value 'abc' for option '--points'");
}

TEST(ExampleCliDeath, NegativeCountNamesTheFlag) {
    EXPECT_EXIT(parse_count("--threads=-4", "--threads="),
                ::testing::ExitedWithCode(2), "'-4' for option '--threads'");
    // Digits only: no leading space (std::stoul skipped it and then wrapped
    // the negative) and no explicit sign.
    EXPECT_EXIT(parse_count("--seed= -5", "--seed="),
                ::testing::ExitedWithCode(2), "' -5' for option '--seed'");
    EXPECT_EXIT(parse_count("--seed=+7", "--seed="),
                ::testing::ExitedWithCode(2), "'\\+7' for option '--seed'");
}

TEST(ExampleCliDeath, TrailingGarbageNamesTheFlag) {
    EXPECT_EXIT(parse_count("--refine-rounds=3x", "--refine-rounds="),
                ::testing::ExitedWithCode(2), "'3x' for option '--refine-rounds'");
}

TEST(ExampleCliDeath, EmptyValueNamesTheFlag) {
    EXPECT_EXIT(parse_count("--threads=", "--threads="),
                ::testing::ExitedWithCode(2), "for option '--threads'");
}

TEST(ExampleCliDeath, BadMetricNamesTheFlagAndChoices) {
    EXPECT_EXIT(parse_metric("--metric=gini", "--metric="),
                ::testing::ExitedWithCode(2),
                "'gini' for option '--metric' \\(expected mk\\|stddev\\|shannon\\|cre\\)");
}

TEST(ExampleCliDeath, AutomaticFormatOnlyWhereAllowed) {
    EXPECT_EQ(parse_format("--format=auto", "--format=", true), FormatChoice::automatic);
    EXPECT_EXIT(parse_format("--to=auto", "--to=", false),
                ::testing::ExitedWithCode(2),
                "'auto' for option '--to' \\(expected text\\|natbin\\)");
}

TEST(ExampleCliParsers, ParseDoubleAcceptsNumbers) {
    EXPECT_DOUBLE_EQ(parse_double("--time-scale=0.001", "--time-scale="), 0.001);
    EXPECT_DOUBLE_EQ(parse_double("--time-scale=1e3", "--time-scale="), 1000.0);
}

TEST(ExampleCliDeath, JunkDoubleNamesTheFlag) {
    EXPECT_EXIT(parse_double("--time-scale=fast", "--time-scale="),
                ::testing::ExitedWithCode(2),
                "'fast' for option '--time-scale' \\(expected a number\\)");
    EXPECT_EXIT(parse_double("--time-scale=1.5x", "--time-scale="),
                ::testing::ExitedWithCode(2), "'1.5x' for option '--time-scale'");
    // The whole value is the number: no leading space, sign or hex prefix.
    EXPECT_EXIT(parse_double("--time-scale= 2", "--time-scale="),
                ::testing::ExitedWithCode(2),
                "' 2' for option '--time-scale' \\(expected a number\\)");
    EXPECT_EXIT(parse_double("--time-scale=+2", "--time-scale="),
                ::testing::ExitedWithCode(2), "'[+]2' for option '--time-scale'");
    EXPECT_EXIT(parse_double("--time-scale=0x10", "--time-scale="),
                ::testing::ExitedWithCode(2), "'0x10' for option '--time-scale'");
    EXPECT_EXIT(parse_double("--time-scale=inf", "--time-scale="),
                ::testing::ExitedWithCode(2),
                "'inf' for option '--time-scale' \\(expected a finite number\\)");
}

TEST(ExampleCliParsers, ParseKeyValueSplitsOnFirstEquals) {
    const auto [key, value] = parse_key_value("--param=n=40", "--param=");
    EXPECT_EQ(key, "n");
    EXPECT_EQ(value, "40");
    // The value may itself contain '=': only the first one splits.
    const auto [key2, value2] = parse_key_value("--param=note=a=b", "--param=");
    EXPECT_EQ(key2, "note");
    EXPECT_EQ(value2, "a=b");
    // Empty values are passed through; the registry validates them.
    const auto [key3, value3] = parse_key_value("--param=n=", "--param=");
    EXPECT_EQ(key3, "n");
    EXPECT_EQ(value3, "");
}

TEST(ExampleCliDeath, KeyValueWithoutEqualsOrKeyNamesTheFlag) {
    EXPECT_EXIT(parse_key_value("--param=n40", "--param="),
                ::testing::ExitedWithCode(2),
                "'n40' for option '--param' \\(expected key=value\\)");
    EXPECT_EXIT(parse_key_value("--param==40", "--param="),
                ::testing::ExitedWithCode(2), "'=40' for option '--param'");
}

TEST(ExampleCliParsers, ThreadCountsUpToTheCeilingAndGridPointsFromTwo) {
    EXPECT_EQ(parse_thread_count("--threads=0", "--threads="), 0u);
    EXPECT_EQ(parse_thread_count("--workers=1024", "--workers="), ThreadPool::kMaxThreads);
    EXPECT_EQ(parse_grid_points("--points=2", "--points="), 2u);
    EXPECT_EQ(parse_grid_points("--points=512", "--points="), kMaxGridPoints);
}

TEST(ExampleCliDeath, ThreadCountAboveTheCeilingNamesTheFlag) {
    EXPECT_EXIT(parse_thread_count("--threads=1025", "--threads="),
                ::testing::ExitedWithCode(2),
                "'1025' for option '--threads' \\(expected at most 1024\\)");
    EXPECT_EXIT(parse_thread_count("--engine-threads=99999999999", "--engine-threads="),
                ::testing::ExitedWithCode(2), "'99999999999' for option '--engine-threads'");
    EXPECT_EXIT(parse_thread_count("--workers=-2", "--workers="),
                ::testing::ExitedWithCode(2), "'-2' for option '--workers'");
}

TEST(ExampleCliDeath, GridPointsBelowTwoNameTheFlag) {
    EXPECT_EXIT(parse_grid_points("--points=1", "--points="), ::testing::ExitedWithCode(2),
                "'1' for option '--points' \\(expected at least 2\\)");
    EXPECT_EXIT(parse_grid_points("--points=0", "--points="), ::testing::ExitedWithCode(2),
                "'0' for option '--points'");
}

TEST(ExampleCliDeath, GridPointsAboveTheCeilingNameTheFlag) {
    // One double per point is allocated before the first sweep, so a huge
    // count used to end in std::bad_alloc after the input was loaded.
    EXPECT_EXIT(parse_grid_points("--points=513", "--points="), ::testing::ExitedWithCode(2),
                "'513' for option '--points' \\(expected at most 512\\)");
    EXPECT_EXIT(parse_grid_points("--points=99999999999", "--points="),
                ::testing::ExitedWithCode(2), "'99999999999' for option '--points'");
}

TEST(ExampleCliParsers, BoundedCountsAcceptBothEnds) {
    constexpr std::size_t kU32Max = std::numeric_limits<std::uint32_t>::max();
    constexpr std::size_t kTimeMax = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(parse_bounded_count("--points=2", "--points=", 2, kU32Max), 2u);
    EXPECT_EQ(parse_bounded_count("--points=4294967295", "--points=", 2, kU32Max), kU32Max);
    EXPECT_EQ(parse_bounded_count("--horizon=0", "--horizon=", 0, kTimeMax), 0u);
    EXPECT_EQ(parse_bounded_count("--delta=9223372036854775807", "--delta=", 0, kTimeMax),
              kTimeMax);
}

TEST(ExampleCliDeath, BoundedCountsOutOfRangeNameTheFlag) {
    // Bounds at the edge of a 32-bit count and of Time (natscale_client
    // narrows --horizon / --delta to Time); `watch` never gives up waiting
    // at --poll-ms=0.
    constexpr std::size_t kU32Max = std::numeric_limits<std::uint32_t>::max();
    constexpr std::size_t kTimeMax = std::numeric_limits<std::int64_t>::max();
    EXPECT_EXIT(parse_bounded_count("--points=4294967298", "--points=", 2, kU32Max),
                ::testing::ExitedWithCode(2),
                "'4294967298' for option '--points' \\(expected at most 4294967295\\)");
    EXPECT_EXIT(parse_bounded_count("--points=1", "--points=", 2, kU32Max),
                ::testing::ExitedWithCode(2),
                "'1' for option '--points' \\(expected at least 2\\)");
    EXPECT_EXIT(parse_bounded_count("--horizon=9223372036854775808", "--horizon=", 0, kTimeMax),
                ::testing::ExitedWithCode(2),
                "'9223372036854775808' for option '--horizon' "
                "\\(expected at most 9223372036854775807\\)");
    EXPECT_EXIT(parse_bounded_count("--delta=18446744073709551615", "--delta=", 0, kTimeMax),
                ::testing::ExitedWithCode(2), "'18446744073709551615' for option '--delta'");
    EXPECT_EXIT(parse_bounded_count("--poll-ms=0", "--poll-ms=", 1, kTimeMax),
                ::testing::ExitedWithCode(2),
                "'0' for option '--poll-ms' \\(expected at least 1\\)");
}

TEST(ExampleCliParsers, ParseDelimiterNamesAndLiterals) {
    EXPECT_EQ(parse_delimiter("--delimiter=tab", "--delimiter="), '\t');
    EXPECT_EQ(parse_delimiter("--delimiter=space", "--delimiter="), ' ');
    EXPECT_EQ(parse_delimiter("--delimiter=comma", "--delimiter="), ',');
    EXPECT_EQ(parse_delimiter("--delimiter=;", "--delimiter="), ';');
}

TEST(ExampleCliDeath, MultiCharDelimiterNamesTheFlag) {
    EXPECT_EXIT(parse_delimiter("--delimiter=||", "--delimiter="),
                ::testing::ExitedWithCode(2),
                "for option '--delimiter' \\(expected a single character or "
                "tab\\|space\\|comma\\)");
}

}  // namespace
}  // namespace natscale::examples

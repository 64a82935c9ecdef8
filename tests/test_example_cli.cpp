// The shared example-CLI parsers (examples/example_cli.hpp) must reject
// junk with exit code 2 and an error that names BOTH the offending value
// and the flag it was passed to — the regression locked in here is the
// flag name appearing in the message (it used to say only the value).
#include <gtest/gtest.h>

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

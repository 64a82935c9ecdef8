// Tests for the real-trace CSV/TSV layouts of the text parser
// (linkstream/io's CsvFormat): column layouts, strict vs lenient
// delimiting, timestamp scaling, label interning, and the hardened
// io_errors malformed rows must produce.  The round-trip test takes a
// sociopatterns-style sample through CSV -> natbin and compares bitwise
// against a hand-written expected trace.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "linkstream/binary_io.hpp"
#include "linkstream/io.hpp"
#include "testing/temp_files.hpp"

namespace natscale {
namespace {

using testing::TempFileGuard;
using testing::temp_path;
using testing::write_temp;

void expect_event(const Event& e, NodeId u, NodeId v, Time t) {
    EXPECT_EQ(e.u, u);
    EXPECT_EQ(e.v, v);
    EXPECT_EQ(e.t, t);
}

TEST(CsvColumns, AcceptsKnownLayoutsRejectsJunk) {
    EXPECT_NO_THROW(validate_csv_columns("uvt", "test"));
    EXPECT_NO_THROW(validate_csv_columns("tuv", "test"));
    EXPECT_NO_THROW(validate_csv_columns("uv_t", "test"));
    EXPECT_NO_THROW(validate_csv_columns("_t_u_v", "test"));
    EXPECT_THROW(validate_csv_columns("", "test"), io_error);
    EXPECT_THROW(validate_csv_columns("uv", "test"), io_error);      // t missing
    EXPECT_THROW(validate_csv_columns("uvtt", "test"), io_error);    // duplicate role
    EXPECT_THROW(validate_csv_columns("uvx", "test"), io_error);     // junk char
    EXPECT_THROW(validate_csv_columns("uvt______", "test"), io_error);  // too wide
}

TEST(CsvAdapter, SnapStyleLenientDefault) {
    // SNAP / KONECT convention: u v t, whitespace-separated, '#' comments.
    const std::string text =
        "# directed edge list with timestamps\n"
        "alice bob 100\n"
        "bob carol 250\n"
        "alice carol 250\n";
    const auto loaded = parse_link_stream(text);
    ASSERT_EQ(loaded.stream.num_events(), 3u);
    EXPECT_EQ(loaded.stream.num_nodes(), 3u);
    EXPECT_EQ(loaded.stream.period_end(), 251);  // max t + 1
    EXPECT_FALSE(loaded.stream.directed());
    const std::vector<std::string> labels{"alice", "bob", "carol"};
    EXPECT_EQ(loaded.node_labels, labels);  // interned in order of appearance
}

TEST(CsvAdapter, SociopatternsLayoutWithHeader) {
    // sociopatterns convention: t i j, tab-separated, one header row.
    const std::string text =
        "time\tperson1\tperson2\n"
        "20\t1157\t1232\n"
        "40\t1157\t1191\n"
        "40\t1232\t1191\n";
    CsvFormat format;
    format.columns = "tuv";
    format.delimiter = '\t';
    format.skip_header = 1;
    const auto loaded = parse_link_stream(text, format);
    ASSERT_EQ(loaded.stream.num_events(), 3u);
    const std::vector<std::string> labels{"1157", "1232", "1191"};
    EXPECT_EQ(loaded.node_labels, labels);
    // Undirected canonicalization: u < v per event, sorted by (t, u, v).
    expect_event(loaded.stream.events()[0], 0, 1, 20);
    expect_event(loaded.stream.events()[1], 0, 2, 40);
    expect_event(loaded.stream.events()[2], 1, 2, 40);
}

TEST(CsvAdapter, WeightColumnSkippedAndTrailingFieldsIgnored) {
    CsvFormat format;
    format.columns = "uv_t";
    const auto loaded = parse_link_stream("a b 3.5 10 extra junk\nb c 1 20\n", format);
    ASSERT_EQ(loaded.stream.num_events(), 2u);
    expect_event(loaded.stream.events()[0], 0, 1, 10);
    expect_event(loaded.stream.events()[1], 1, 2, 20);
}

TEST(CsvAdapter, TimeScaleConvertsUnits) {
    CsvFormat format;
    format.time_scale = 1e-3;  // millisecond file at second resolution
    const auto loaded = parse_link_stream("a b 1500\na c 2499\n", format);
    expect_event(loaded.stream.events()[0], 0, 1, 2);  // llround(1.5)
    expect_event(loaded.stream.events()[1], 0, 2, 2);
}

TEST(CsvAdapter, DirectedKeepsOrientation) {
    CsvFormat format;
    format.directed = true;
    const auto loaded = parse_link_stream("b a 5\n", format);
    EXPECT_TRUE(loaded.stream.directed());
    // 'b' interned first -> id 0; orientation preserved, not canonicalized.
    expect_event(loaded.stream.events()[0], 0, 1, 5);
}

TEST(CsvAdapter, SelfLoopsSkippedOrRejectedPerFormat) {
    const auto skipped = parse_link_stream("a a 1\na b 2\n");
    EXPECT_EQ(skipped.stream.num_events(), 1u);

    CsvFormat strict;
    strict.skip_self_loops = false;
    try {
        parse_link_stream("a a 1\n", strict, "trace.csv");
        FAIL() << "expected io_error";
    } catch (const io_error& e) {
        EXPECT_EQ(std::string(e.what()), "trace.csv:1: self-loop on node 'a'");
    }
}

TEST(CsvAdapter, StrictDelimiterRejectsEmptyFields) {
    CsvFormat format;
    format.delimiter = ',';
    EXPECT_NO_THROW(parse_link_stream("a,b,7\n", format));
    try {
        parse_link_stream("a,,7\n", format, "trace.csv");
        FAIL() << "expected io_error";
    } catch (const io_error& e) {
        EXPECT_EQ(std::string(e.what()), "trace.csv:1: empty field 2");
    }
    // The lenient splitter would have glued "a  7" into two fields and
    // failed differently; strict mode names the hole.
}

TEST(CsvAdapter, StripsUtf8BomFromFirstLine) {
    // Excel/Sheets exports prepend a UTF-8 BOM.  Left in place it was
    // interned into the first node label, so "alice" on line 1 and "alice"
    // on line 2 became two different nodes.
    const auto loaded = parse_link_stream("\xEF\xBB\xBF" "alice bob 1\nalice carol 2\n");
    EXPECT_EQ(loaded.stream.num_nodes(), 3u);
    const std::vector<std::string> labels{"alice", "bob", "carol"};
    EXPECT_EQ(loaded.node_labels, labels);

    // Only the first physical line is a BOM position; byte-identical content
    // later in the file is data and stays untouched.
    CsvFormat strict;
    strict.delimiter = ',';
    const auto kept = parse_link_stream("\xEF\xBB\xBF" "a,b,1\n" "\xEF\xBB\xBF" "a,c,2\n", strict);
    EXPECT_EQ(kept.stream.num_nodes(), 4u);  // a, b, "\xEF\xBB\xBF" "a", c
    EXPECT_EQ(kept.node_labels[2], "\xEF\xBB\xBF" "a");
}

TEST(CsvAdapter, ClassicMacCarriageReturnLineEndings) {
    // \r-only line endings (classic-Mac spreadsheet exports): the old
    // std::getline-based reader saw the whole file as one line, parsed the
    // first row and silently discarded every other event.
    const auto loaded = parse_link_stream("alice bob 100\rbob carol 250\ralice carol 300\r");
    ASSERT_EQ(loaded.stream.num_events(), 3u);
    EXPECT_EQ(loaded.stream.num_nodes(), 3u);
    EXPECT_EQ(loaded.stream.period_end(), 301);

    // Strict delimiting over \r-only rows, including a blank line and a
    // final row without a terminator.
    CsvFormat strict;
    strict.delimiter = ',';
    const auto strict_loaded = parse_link_stream("a,b,1\r\rb,c,2\ra,c,3", strict);
    ASSERT_EQ(strict_loaded.stream.num_events(), 3u);

    // Mixed endings parse identically: every convention separates rows once.
    const auto mixed = parse_link_stream("alice bob 100\r\nbob carol 250\ralice carol 300\n");
    ASSERT_EQ(mixed.stream.num_events(), 3u);
    EXPECT_EQ(mixed.stream.period_end(), 301);

    // Line numbers in diagnostics count \r rows, so errors point at the
    // right row of the original file.
    try {
        parse_link_stream("a b 1\rc d\r", {}, "mac.txt");
        FAIL() << "expected io_error";
    } catch (const io_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "mac.txt:2: row has 2 fields, layout 'uvt' needs at least 3");
    }
}

TEST(CsvAdapter, MalformedRowsNameLineAndReason) {
    try {
        parse_link_stream("a b 1\nc d\n", {}, "bad.txt");
        FAIL() << "expected io_error";
    } catch (const io_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "bad.txt:2: row has 2 fields, layout 'uvt' needs at least 3");
    }
    try {
        parse_link_stream("a b x\n", {}, "bad.txt");
        FAIL() << "expected io_error";
    } catch (const io_error& e) {
        EXPECT_EQ(std::string(e.what()), "bad.txt:1: bad timestamp 'x'");
    }
    try {
        parse_link_stream("a b -5\n", {}, "bad.txt");
        FAIL() << "expected io_error";
    } catch (const io_error& e) {
        EXPECT_EQ(std::string(e.what()), "bad.txt:1: bad timestamp '-5'");
    }
    EXPECT_THROW(parse_link_stream("", {}, "empty.txt"), std::runtime_error);
    EXPECT_THROW(parse_link_stream("# only comments\n", {}, "empty.txt"),
                 std::runtime_error);
}

TEST(CsvAdapter, LoadFromFileMatchesParseFromString) {
    const std::string text = "a b 1\nb c 2\n";
    const std::string path = write_temp("csv_layout_sample.txt", text);
    TempFileGuard guard(path);
    const auto from_file = load_link_stream(path);
    const auto from_text = parse_link_stream(text);
    ASSERT_EQ(from_file.stream.num_events(), from_text.stream.num_events());
    for (std::size_t i = 0; i < from_file.stream.num_events(); ++i) {
        EXPECT_EQ(from_file.stream.events()[i], from_text.stream.events()[i]);
    }
    EXPECT_EQ(from_file.node_labels, from_text.node_labels);
    EXPECT_THROW(load_link_stream(temp_path("no_such_file.csv")), std::runtime_error);
}

TEST(CsvAdapter, SociopatternsSampleRoundTripsToNatbinBitwise) {
    // A hand-written sociopatterns-style contact list...
    const std::string text =
        "t\ti\tj\n"
        "20\t1157\t1232\n"
        "40\t1157\t1191\n"
        "60\t1232\t1191\n"
        "60\t1157\t1232\n";
    CsvFormat format;
    format.columns = "tuv";
    format.delimiter = '\t';
    format.skip_header = 1;
    const auto loaded = parse_link_stream(text, format);

    // ...whose expected trace (dense ids by first appearance, undirected
    // canonical order) is written out by hand:
    const std::vector<Event> expected{{0, 1, 20}, {0, 2, 40}, {0, 1, 60}, {1, 2, 60}};
    const LinkStream reference(expected, 3, 61, false);

    const std::string path = temp_path("csv_roundtrip.natbin");
    TempFileGuard guard(path);
    save_natbin(path, loaded.stream, loaded.node_labels);
    const auto reopened = open_natbin(path);

    EXPECT_EQ(reopened.stream.num_nodes(), reference.num_nodes());
    EXPECT_EQ(reopened.stream.period_end(), reference.period_end());
    EXPECT_EQ(reopened.stream.directed(), reference.directed());
    ASSERT_EQ(reopened.stream.num_events(), reference.num_events());
    for (std::size_t i = 0; i < reference.num_events(); ++i) {
        EXPECT_EQ(reopened.stream.events()[i], reference.events()[i]) << "event " << i;
    }
    const std::vector<std::string> labels{"1157", "1232", "1191"};
    EXPECT_EQ(reopened.node_labels, labels);
}

}  // namespace
}  // namespace natscale

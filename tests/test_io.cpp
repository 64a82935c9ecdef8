// Unit tests for link-stream file I/O, including failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "linkstream/binary_io.hpp"
#include "linkstream/io.hpp"
#include "testing/temp_files.hpp"
#include "util/proc_rss.hpp"

namespace natscale {
namespace {

using testing::TempFileGuard;
using testing::temp_path;
using testing::write_temp;

TEST(ParseLinkStream, BasicTriples) {
    const auto loaded = parse_link_stream("0 1 10\n1 2 20\n");
    EXPECT_EQ(loaded.stream.num_events(), 2u);
    EXPECT_EQ(loaded.stream.num_nodes(), 3u);
    EXPECT_EQ(loaded.stream.period_end(), 21);
    EXPECT_EQ(loaded.node_labels.size(), 3u);
}

TEST(ParseLinkStream, CommentsAndBlanksSkipped) {
    const auto loaded = parse_link_stream("# header\n\n% konect-style\n0 1 5\n");
    EXPECT_EQ(loaded.stream.num_events(), 1u);
}

TEST(ParseLinkStream, AcceptsTabsAndCommas) {
    const auto loaded = parse_link_stream("0\t1\t5\n2,3,9\n");
    EXPECT_EQ(loaded.stream.num_events(), 2u);
    EXPECT_EQ(loaded.stream.num_nodes(), 4u);
}

TEST(ParseLinkStream, StringLabelsRelabelled) {
    const auto loaded = parse_link_stream("alice bob 3\nbob carol 7\n");
    EXPECT_EQ(loaded.stream.num_nodes(), 3u);
    ASSERT_EQ(loaded.node_labels.size(), 3u);
    EXPECT_EQ(loaded.node_labels[0], "alice");
    EXPECT_EQ(loaded.node_labels[1], "bob");
    EXPECT_EQ(loaded.node_labels[2], "carol");
}

TEST(ParseLinkStream, FourthColumnIgnored) {
    const auto loaded = parse_link_stream("0 1 5 0.75\n");
    EXPECT_EQ(loaded.stream.num_events(), 1u);
}

TEST(ParseLinkStream, TimeScaleConvertsFractions) {
    CsvFormat options;
    options.time_scale = 1000.0;
    const auto loaded = parse_link_stream("0 1 1.5\n", options);
    EXPECT_EQ(loaded.stream.events()[0].t, 1500);
}

TEST(ParseLinkStream, DirectedFlagHonoured) {
    CsvFormat options;
    options.directed = true;
    const auto loaded = parse_link_stream("b a 1\n", options);
    EXPECT_TRUE(loaded.stream.directed());
    EXPECT_EQ(loaded.node_labels[loaded.stream.events()[0].u], "b");
}

TEST(ParseLinkStream, SelfLoopsSkippedByDefault) {
    const auto loaded = parse_link_stream("0 0 1\n0 1 2\n");
    EXPECT_EQ(loaded.stream.num_events(), 1u);
}

TEST(ParseLinkStream, SelfLoopsRejectedWhenAsked) {
    CsvFormat options;
    options.skip_self_loops = false;
    EXPECT_THROW(parse_link_stream("0 0 1\n", options), io_error);
}

TEST(ParseLinkStream, MissingColumnFailsWithLineNumber) {
    try {
        parse_link_stream("0 1 5\n0 1\n");
        FAIL() << "expected io_error";
    } catch (const io_error& e) {
        EXPECT_EQ(e.line_number, 2u);
        EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos);
    }
}

TEST(ParseLinkStream, BadTimestampFails) {
    EXPECT_THROW(parse_link_stream("0 1 notatime\n"), io_error);
    EXPECT_THROW(parse_link_stream("0 1 -5\n"), io_error);
    EXPECT_THROW(parse_link_stream("0 1 12x\n"), io_error);
}

TEST(ParseLinkStream, EmptyInputFails) {
    EXPECT_THROW(parse_link_stream(""), std::runtime_error);
    EXPECT_THROW(parse_link_stream("# only comments\n"), std::runtime_error);
}

TEST(LoadLinkStream, MissingFileFails) {
    EXPECT_THROW(load_link_stream("/nonexistent/natscale.txt"), std::runtime_error);
}

TEST(SaveLoadRoundtrip, PreservesEvents) {
    const auto path = temp_path("natscale_io_roundtrip.txt");

    const auto original = parse_link_stream("3 9 100\n9 4 50\n3 4 75\n");
    save_link_stream(path, original.stream, original.node_labels);
    const auto reloaded = load_link_stream(path);

    EXPECT_EQ(reloaded.stream.num_events(), original.stream.num_events());
    EXPECT_EQ(reloaded.stream.num_nodes(), original.stream.num_nodes());
    // Events compare equal after both sides' canonical sort.
    for (std::size_t i = 0; i < original.stream.num_events(); ++i) {
        EXPECT_EQ(reloaded.stream.events()[i].t, original.stream.events()[i].t);
    }
    std::filesystem::remove(path);
}

TEST(ParseLinkStream, CrlfLinesParse) {
    // Windows line endings: the '\r' must be treated as a separator, not as
    // part of the timestamp field.
    const auto loaded = parse_link_stream("0 1 5\r\n1 2 7\r\n");
    ASSERT_EQ(loaded.stream.num_events(), 2u);
    EXPECT_EQ(loaded.stream.events()[0].t, 5);
    EXPECT_EQ(loaded.stream.events()[1].t, 7);
}

/// A file exercising every accepted syntax at once: comments of both
/// flavours, blank lines, CRLF endings, string labels, and a self-loop.
constexpr const char* kMessyFile =
    "# header comment\r\n"
    "\r\n"
    "% konect-style comment\n"
    "alice bob 10\r\n"
    "bob carol 20\n"
    "\n"
    "carol carol 25\n"  // self-loop, skipped by default
    "alice carol 30\r\n";

TEST(LoadLinkStream, StreamingLoaderMatchesStringParser) {
    // The line-streaming file loader must produce a byte-identical
    // LinkStream (and label table) to the in-memory string parser.
    const auto path = write_temp("natscale_io_streaming.txt", kMessyFile);
    const auto from_file = load_link_stream(path);
    const auto from_string = parse_link_stream(kMessyFile);
    std::filesystem::remove(path);

    EXPECT_EQ(from_file.node_labels, from_string.node_labels);
    EXPECT_EQ(from_file.stream.num_nodes(), from_string.stream.num_nodes());
    EXPECT_EQ(from_file.stream.period_end(), from_string.stream.period_end());
    ASSERT_EQ(from_file.stream.num_events(), from_string.stream.num_events());
    for (std::size_t i = 0; i < from_file.stream.num_events(); ++i) {
        const Event& a = from_file.stream.events()[i];
        const Event& b = from_string.stream.events()[i];
        EXPECT_EQ(a.u, b.u);
        EXPECT_EQ(a.v, b.v);
        EXPECT_EQ(a.t, b.t);
    }
}

TEST(LoadLinkStream, MessyFileContentParsedCorrectly) {
    const auto path = write_temp("natscale_io_messy.txt", kMessyFile);
    const auto loaded = load_link_stream(path);
    std::filesystem::remove(path);

    ASSERT_EQ(loaded.stream.num_events(), 3u);  // self-loop dropped
    EXPECT_EQ(loaded.stream.num_nodes(), 3u);
    ASSERT_EQ(loaded.node_labels.size(), 3u);
    EXPECT_EQ(loaded.node_labels[0], "alice");
    EXPECT_EQ(loaded.node_labels[1], "bob");
    EXPECT_EQ(loaded.node_labels[2], "carol");
    EXPECT_EQ(loaded.stream.events()[2].t, 30);
}

TEST(LoadLinkStream, SelfLoopRejectedWithLineNumberWhenNotSkipping) {
    const auto path = write_temp("natscale_io_selfloop.txt", kMessyFile);
    CsvFormat options;
    options.skip_self_loops = false;
    try {
        load_link_stream(path, options);
        FAIL() << "expected io_error";
    } catch (const io_error& e) {
        EXPECT_EQ(e.line_number, 7u);  // the `carol carol 25` line
    }
    std::filesystem::remove(path);
}

TEST(SaveLoadRoundtrip, LabeledEventsSurviveExactly) {
    const auto path = temp_path("natscale_io_labeled.txt");

    const auto original = parse_link_stream("alice bob 100\nbob carol 50\nalice carol 75\n");
    save_link_stream(path, original.stream, original.node_labels);
    const auto reloaded = load_link_stream(path);
    std::filesystem::remove(path);

    // Dense ids are an interning artifact (events store time-sorted, so the
    // reloaded file interns labels in a different first-appearance order);
    // the invariant is the labelled event list, which round-trips exactly.
    EXPECT_EQ(reloaded.stream.num_nodes(), original.stream.num_nodes());
    EXPECT_EQ(reloaded.stream.period_end(), original.stream.period_end());
    ASSERT_EQ(reloaded.stream.num_events(), original.stream.num_events());
    std::vector<std::string> original_labels(original.node_labels);
    std::sort(original_labels.begin(), original_labels.end());
    std::vector<std::string> reloaded_labels(reloaded.node_labels);
    std::sort(reloaded_labels.begin(), reloaded_labels.end());
    EXPECT_EQ(reloaded_labels, original_labels);
    for (std::size_t i = 0; i < original.stream.num_events(); ++i) {
        const Event& a = reloaded.stream.events()[i];
        const Event& b = original.stream.events()[i];
        // Undirected endpoints canonicalize as u < v on the (re-interned)
        // dense ids, so compare the unordered label pair.
        EXPECT_EQ(std::minmax(reloaded.node_labels[a.u], reloaded.node_labels[a.v]),
                  std::minmax(original.node_labels[b.u], original.node_labels[b.v]));
        EXPECT_EQ(a.t, b.t);
    }
}

TEST(LoadLinkStream, StreamsLargeFilesWithoutBufferingThemWhole) {
    // Regression for the triple-copy loader: the pre-streaming
    // load_link_stream read the whole file into an ostringstream, copied it
    // into a std::string, and copied that into an istringstream — three
    // transient full copies (>= 3x file size of extra peak memory) before
    // the first event was parsed.  The streaming loader's peak overhead is
    // the event list plus one line, so loading a ~16 MiB file must not grow
    // peak RSS by more than ~2.5x the file size.
#ifdef NATSCALE_SANITIZED
    GTEST_SKIP() << "peak-RSS bound is not meaningful under a sanitizer";
#endif
#ifndef __linux__
    GTEST_SKIP() << "needs /proc/self/status (VmHWM)";
#endif
    auto peak_rss_bytes = [] { return peak_rss_mib() * 1024.0 * 1024.0; };

    const auto path = temp_path("natscale_io_large_stream.txt");
    double file_size = 0.0;
    {
        std::ofstream os(path);
        // ~1.1M events over 500 nodes: ~16 MiB of text.
        for (int i = 0; i < 1'100'000; ++i) {
            const int u = i % 499;
            os << u << ' ' << u + 1 << ' ' << 100'000 + i % 900'000 << '\n';
        }
    }
    file_size = static_cast<double>(std::filesystem::file_size(path));
    ASSERT_GT(file_size, 12.0 * 1024 * 1024);

    const double before = peak_rss_bytes();
    const auto loaded = load_link_stream(path);
    const double after = peak_rss_bytes();
    std::filesystem::remove(path);

    EXPECT_EQ(loaded.stream.num_events(), 1'100'000u);
    if (before > 0.0) {
        EXPECT_LT(after - before, 2.5 * file_size)
            << "peak RSS grew by " << (after - before) / (1024 * 1024)
            << " MiB loading a " << file_size / (1024 * 1024) << " MiB file";
    }
}

/// Two spreadsheet-export quirks the text parser must undo.  Each file used
/// to load differently through the main command than through `convert`.
constexpr const char* kBomFile = "\xEF\xBB\xBF" "alice bob 1\nalice carol 2\nbob carol 3\n";
constexpr const char* kCarriageReturnFile =
    "alice bob 100\rbob carol 200\ralice carol 300\rcarol dave 400\r";

TEST(LoadLinkStream, StripsUtf8ByteOrderMark) {
    // Left in place, the BOM was interned into the first label, so "alice"
    // on line 1 and "alice" on line 2 became two different nodes.
    const auto path = write_temp("natscale_io_bom.txt", kBomFile);
    TempFileGuard guard(path);
    const std::vector<std::string> labels{"alice", "bob", "carol"};
    for (const auto& loaded : {parse_link_stream(kBomFile), load_link_stream(path)}) {
        EXPECT_EQ(loaded.stream.num_nodes(), 3u);
        EXPECT_EQ(loaded.node_labels, labels);
        EXPECT_EQ(loaded.stream.num_events(), 3u);
    }
}

TEST(LoadLinkStream, CarriageReturnOnlyRowsAreSeparateLines) {
    // A \r-only file read as one line kept its first row and silently
    // dropped every other event.
    const auto path = write_temp("natscale_io_cr.txt", kCarriageReturnFile);
    TempFileGuard guard(path);
    for (const auto& loaded : {parse_link_stream(kCarriageReturnFile), load_link_stream(path)}) {
        EXPECT_EQ(loaded.stream.num_events(), 4u);
        EXPECT_EQ(loaded.stream.num_nodes(), 4u);
        EXPECT_EQ(loaded.stream.period_end(), 401);
    }
}

TEST(LoadStreamAuto, TextFileMatchesItsNatbinCopy) {
    // One file, one answer: the format sniff must hand text to the same
    // parser `convert` uses, so loading the file directly and reopening its
    // natbin copy agree on events, labels and period.
    struct Case {
        const char* text;
        std::size_t events;
        NodeId nodes;
    };
    const Case cases[] = {{kMessyFile, 3, 3}, {kBomFile, 3, 3}, {kCarriageReturnFile, 4, 4}};
    for (const Case& c : cases) {
        SCOPED_TRACE(::testing::PrintToString(std::string(c.text)));
        TempFileGuard text_file(write_temp("natscale_io_auto.txt", c.text));
        TempFileGuard bin_file(temp_path("natscale_io_auto.natbin"));
        const auto parsed = parse_link_stream(c.text);
        save_natbin(bin_file.path(), parsed.stream, parsed.node_labels);
        const auto converted = open_natbin(bin_file.path());
        const auto direct = load_stream_auto(text_file.path());

        EXPECT_EQ(direct.stream.num_events(), c.events);
        EXPECT_EQ(direct.stream.num_nodes(), c.nodes);
        EXPECT_EQ(direct.node_labels, converted.node_labels);
        EXPECT_EQ(direct.stream.num_nodes(), converted.stream.num_nodes());
        EXPECT_EQ(direct.stream.period_end(), converted.stream.period_end());
        ASSERT_EQ(direct.stream.num_events(), converted.stream.num_events());
        for (std::size_t i = 0; i < direct.stream.num_events(); ++i) {
            EXPECT_EQ(direct.stream.events()[i], converted.stream.events()[i]) << "event " << i;
        }
    }
}

TEST(SaveLoadRoundtrip, DenseIdsWhenNoLabels) {
    const auto path = temp_path("natscale_io_dense.txt");
    LinkStream stream({{0, 1, 5}}, 2, 10);
    save_link_stream(path, stream);
    const auto reloaded = load_link_stream(path);
    EXPECT_EQ(reloaded.stream.num_events(), 1u);
    EXPECT_EQ(reloaded.node_labels[0], "0");
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace natscale

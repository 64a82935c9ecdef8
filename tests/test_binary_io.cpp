// Property and failure-injection tests of the .natbin binary format
// (linkstream/binary_io): random generated streams round-trip bitwise
// through save/open, and a corpus of malformed files is rejected with
// clean io_errors (no out-of-bounds reads — this suite runs under ASan in
// CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "gen/registry.hpp"
#include "linkstream/binary_io.hpp"
#include "linkstream/io.hpp"
#include "testing/temp_files.hpp"
#include "util/rng.hpp"

namespace natscale {
namespace {

using testing::TempFileGuard;
using testing::temp_path;
using testing::write_temp;

void expect_streams_bitwise_equal(const LinkStream& a, const LinkStream& b) {
    EXPECT_EQ(a.num_nodes(), b.num_nodes());
    EXPECT_EQ(a.period_end(), b.period_end());
    EXPECT_EQ(a.directed(), b.directed());
    EXPECT_EQ(a.num_distinct_timestamps(), b.num_distinct_timestamps());
    ASSERT_EQ(a.num_events(), b.num_events());
    const auto ea = a.events();
    const auto eb = b.events();
    for (std::size_t i = 0; i < ea.size(); ++i) {
        ASSERT_EQ(ea[i], eb[i]) << "event " << i << " differs";
    }
}

/// Random activity-burst stream: heavy-tailed per-node rates, clustered
/// timestamps — the "messy human trace" scenario next to the two synthetic
/// generators of the paper.
LinkStream random_burst_stream(std::uint64_t seed) {
    Rng rng(seed);
    const NodeId n = static_cast<NodeId>(16 + rng.uniform_index(48));
    const Time period = 5'000 + rng.uniform_int(0, 45'000);
    const std::size_t bursts = 20 + rng.uniform_index(60);
    std::vector<Event> events;
    for (std::size_t b = 0; b < bursts; ++b) {
        const Time center = rng.uniform_int(0, period - 1);
        const std::size_t size = 1 + rng.uniform_index(20);
        for (std::size_t i = 0; i < size; ++i) {
            const NodeId u = static_cast<NodeId>(rng.uniform_index(n));
            NodeId v = static_cast<NodeId>(rng.uniform_index(n));
            if (u == v) v = (v + 1) % n;
            const Time t = std::min<Time>(period - 1,
                                          std::max<Time>(0, center + rng.uniform_int(-50, 50)));
            events.push_back({u, v, t});
        }
    }
    return LinkStream(std::move(events), n, period, false);
}

/// The three generated scenarios of the round-trip property test.
std::vector<std::pair<std::string, LinkStream>> scenarios(std::uint64_t seed) {
    std::vector<std::pair<std::string, LinkStream>> result;
    result.emplace_back(
        "uniform", gen::generate_stream("uniform:n=24,links=4,T=40000", seed).stream);
    result.emplace_back(
        "two_mode",
        gen::generate_stream("two_mode:n=20,alternations=6,T=30000", seed + 1).stream);
    result.emplace_back("burst", random_burst_stream(seed + 2));
    return result;
}

TEST(NatbinRoundtrip, RandomStreamsSurviveBitwiseAcrossSeeds) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        for (const auto& [name, stream] : scenarios(seed * 1000)) {
            SCOPED_TRACE(name + " seed " + std::to_string(seed));
            TempFileGuard file(temp_path("natscale_roundtrip_" + name + ".natbin"));
            save_natbin(file.path(), stream);

            const auto mmapped = open_natbin(file.path());
            expect_streams_bitwise_equal(mmapped.stream, stream);
            EXPECT_TRUE(mmapped.node_labels.empty());
        }
    }
}

TEST(NatbinRoundtrip, LabelsNodeUniverseAndPeriodSurviveExactly) {
    // natbin keeps what text cannot: dense ids (no re-interning), isolated
    // nodes, and a period end beyond the last event.
    std::vector<Event> events{{0, 3, 5}, {1, 3, 5}, {0, 1, 99}};
    const LinkStream stream(std::move(events), 5, 1'000);  // nodes 2 and 4 isolated
    const std::vector<std::string> labels{"alpha", "", "beta gamma", "carol", "d"};

    TempFileGuard file(temp_path("natscale_roundtrip_labels.natbin"));
    save_natbin(file.path(), stream, labels);
    const auto loaded = open_natbin(file.path());

    expect_streams_bitwise_equal(loaded.stream, stream);
    EXPECT_EQ(loaded.stream.num_nodes(), 5u);       // isolated nodes kept
    EXPECT_EQ(loaded.stream.period_end(), 1'000);   // T kept beyond last event
    EXPECT_EQ(loaded.node_labels, labels);          // bitwise, including "" and spaces
}

TEST(NatbinRoundtrip, DirectedStreamsKeepOrientation) {
    std::vector<Event> events{{3, 1, 10}, {1, 3, 10}, {2, 0, 4}};
    const LinkStream stream(std::move(events), 4, 20, /*directed=*/true);
    TempFileGuard file(temp_path("natscale_roundtrip_directed.natbin"));
    save_natbin(file.path(), stream);
    const auto loaded = open_natbin(file.path());
    EXPECT_TRUE(loaded.stream.directed());
    expect_streams_bitwise_equal(loaded.stream, stream);
}

TEST(NatbinRoundtrip, TextAndNatbinAgreeModuloRelabelling) {
    // The same stream saved both ways: the text reload re-interns labels in
    // first-appearance order, so compare the label-resolved event lists;
    // the natbin reload must be bitwise identical with no mapping at all.
    const auto stream = random_burst_stream(77);
    std::vector<std::string> labels;
    for (NodeId i = 0; i < stream.num_nodes(); ++i) {
        // Not "n" + to_string(i): that operator+ trips a gcc-12 -Wrestrict
        // false positive at -O3.
        std::string label = std::to_string(i);
        label.insert(label.begin(), 'n');
        labels.push_back(std::move(label));
    }

    TempFileGuard text_file(temp_path("natscale_roundtrip_both.txt"));
    TempFileGuard bin_file(temp_path("natscale_roundtrip_both.natbin"));
    save_link_stream(text_file.path(), stream, labels);
    save_natbin(bin_file.path(), stream, labels);

    const auto from_text = load_link_stream(text_file.path());
    const auto from_bin = open_natbin(bin_file.path());

    expect_streams_bitwise_equal(from_bin.stream, stream);
    EXPECT_EQ(from_bin.node_labels, labels);

    ASSERT_EQ(from_text.stream.num_events(), stream.num_events());
    // Dense ids are re-interned in first-appearance order, which permutes
    // the (t, u, v) sort within equal timestamps — so compare the
    // label-resolved event *multisets*, the invariant text actually keeps.
    auto labelled_events = [](const LinkStream& s, const std::vector<std::string>& names) {
        std::vector<std::tuple<Time, std::string, std::string>> out;
        for (const Event& e : s.events()) {
            auto [lo, hi] = std::minmax(names[e.u], names[e.v]);
            out.emplace_back(e.t, std::move(lo), std::move(hi));
        }
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_EQ(labelled_events(from_text.stream, from_text.node_labels),
              labelled_events(stream, labels));
}

TEST(NatbinWriterStreaming, MatchesSaveNatbinByteForByte) {
    const auto stream = random_burst_stream(123);
    TempFileGuard bulk(temp_path("natscale_writer_bulk.natbin"));
    TempFileGuard streamed(temp_path("natscale_writer_streamed.natbin"));
    save_natbin(bulk.path(), stream);
    {
        NatbinWriter writer(streamed.path(), stream.num_nodes(), stream.period_end(),
                            stream.directed());
        for (const Event& e : stream.events()) writer.append(e);
        writer.finish();
    }
    std::ifstream a(bulk.path(), std::ios::binary);
    std::ifstream b(streamed.path(), std::ios::binary);
    const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
    const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
    EXPECT_EQ(bytes_a, bytes_b);
}

TEST(NatbinWriterStreaming, RejectsNonCanonicalAppends) {
    TempFileGuard file(temp_path("natscale_writer_reject.natbin"));
    NatbinWriter writer(file.path(), 10, 100, /*directed=*/false);
    writer.append({1, 2, 50});
    EXPECT_THROW(writer.append({1, 2, 40}), io_error);   // time goes backwards
    EXPECT_THROW(writer.append({5, 3, 60}), io_error);   // u > v on undirected
    EXPECT_THROW(writer.append({3, 3, 60}), io_error);   // self-loop
    EXPECT_THROW(writer.append({1, 10, 60}), io_error);  // endpoint out of range
    EXPECT_THROW(writer.append({1, 2, 100}), io_error);  // t >= T
    writer.append({2, 3, 50});  // equal t, later (u, v): still canonical
    writer.finish();
    const auto loaded = open_natbin(file.path());
    EXPECT_EQ(loaded.stream.num_events(), 2u);
}

// --- malformed-file corpus ------------------------------------------------

/// A valid little file to mutate.
std::string valid_natbin_bytes() {
    const LinkStream stream({{0, 1, 3}, {1, 2, 7}}, 3, 10);
    TempFileGuard file(temp_path("natscale_corpus_seed.natbin"));
    save_natbin(file.path(), stream, {"a", "b", "c"});
    std::ifstream is(file.path(), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(is)), {});
}

TEST(NatbinRejection, WrongMagic) {
    std::string bytes = valid_natbin_bytes();
    bytes[0] = 'X';
    TempFileGuard file(write_temp("natscale_bad_magic.natbin", bytes));
    EXPECT_THROW(open_natbin(file.path()), io_error);
    // The format sniffer must classify it as text, and the text parser must
    // reject the binary garbage cleanly too.
    EXPECT_EQ(detect_stream_format(file.path()), StreamFormat::text);
    EXPECT_THROW(load_stream_auto(file.path()), std::exception);
}

TEST(NatbinRejection, ShortHeader) {
    const std::string bytes = valid_natbin_bytes();
    for (const std::size_t keep : {0ul, 4ul, 8ul, 16ul, 63ul}) {
        TempFileGuard file(write_temp("natscale_short_header.natbin", bytes.substr(0, keep)));
        EXPECT_THROW(open_natbin(file.path()), std::exception) << keep << " bytes kept";
    }
}

TEST(NatbinRejection, TruncatedRecords) {
    const std::string bytes = valid_natbin_bytes();
    // Drop the last record and then progressively tear the one before it.
    for (const std::size_t cut : {1ul, 7ul, 16ul, 17ul}) {
        TempFileGuard file(
            write_temp("natscale_truncated.natbin", bytes.substr(0, bytes.size() - cut)));
        try {
            open_natbin(file.path());
            FAIL() << "expected io_error cutting " << cut << " bytes";
        } catch (const io_error& e) {
            EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
        }
    }
}

TEST(NatbinRejection, TruncatedLabelTable) {
    std::string bytes = valid_natbin_bytes();
    // Claim a longer first label than the table holds.
    bytes[kNatbinHeaderBytes] = static_cast<char>(200);
    TempFileGuard file(write_temp("natscale_bad_labels.natbin", bytes));
    EXPECT_THROW(open_natbin(file.path()), io_error);
}

TEST(NatbinRejection, UnsortedOrNonCanonicalRecords) {
    const std::string bytes = valid_natbin_bytes();
    const std::size_t records = bytes.size() - 2 * kNatbinRecordBytes;

    std::string swapped = bytes;  // swap the two records: breaks (t, u, v) order
    for (std::size_t i = 0; i < kNatbinRecordBytes; ++i) {
        std::swap(swapped[records + i], swapped[records + kNatbinRecordBytes + i]);
    }
    TempFileGuard swapped_file(write_temp("natscale_unsorted.natbin", swapped));
    EXPECT_THROW(open_natbin(swapped_file.path()), io_error);

    std::string self_loop = bytes;  // first record becomes 1-1
    self_loop[records] = 1;
    TempFileGuard loop_file(write_temp("natscale_selfloop.natbin", self_loop));
    EXPECT_THROW(open_natbin(loop_file.path()), io_error);

    std::string out_of_range = bytes;  // endpoint beyond num_nodes
    out_of_range[records + 4] = 9;
    TempFileGuard range_file(write_temp("natscale_range.natbin", out_of_range));
    EXPECT_THROW(open_natbin(range_file.path()), io_error);
}

TEST(NatbinRejection, MalformedRecordTableSameMessageFromEveryReader) {
    // One record check serves every natbin reader: each malformed row must
    // be rejected with the same message by open_natbin, by a fresh tail
    // open, and by a tail reopen resuming just before the bad record.
    const std::vector<Event> valid{{0, 1, 2}, {1, 2, 5}, {0, 3, 6}};  // n = 4, T = 10
    struct Row {
        const char* name;
        Event bad;  // replaces the last record
        const char* reason;
    };
    const std::vector<Row> rows{
        {"endpoint >= n", {0, 4, 6}, "endpoint out of range"},
        {"self-loop", {3, 3, 6}, "is a self-loop"},
        {"u > v undirected", {3, 0, 6}, "breaks the canonical u < v endpoint order"},
        {"t < 0", {0, 3, -1}, "timestamp out of [0, T)"},
        {"t >= T", {0, 3, 10}, "timestamp out of [0, T)"},
        {"(t, u, v) order", {0, 3, 4}, "breaks (t, u, v) sort order"},
    };
    auto message_of = [](auto&& open) -> std::string {
        try {
            open();
        } catch (const io_error& e) {
            return e.what();
        }
        return "no io_error";
    };
    const std::size_t bad_index = valid.size() - 1;
    for (const Row& row : rows) {
        SCOPED_TRACE(row.name);
        TempFileGuard file(temp_path("natscale_bad_record.natbin"));
        {
            NatbinWriter writer(file.path(), 4, 10, /*directed=*/false);
            for (const Event& e : valid) writer.append(e);
        }
        {
            // Overwrite the last record in place, little-endian u32 u, u32 v,
            // i64 t: the writer itself refuses every row of this table.
            const std::size_t at = kNatbinHeaderBytes + bad_index * kNatbinRecordBytes;
            std::fstream os(file.path(), std::ios::binary | std::ios::in | std::ios::out);
            os.seekp(static_cast<std::streamoff>(at));
            const auto t = static_cast<std::uint64_t>(row.bad.t);
            for (int b = 0; b < 4; ++b) os.put(static_cast<char>(row.bad.u >> (8 * b)));
            for (int b = 0; b < 4; ++b) os.put(static_cast<char>(row.bad.v >> (8 * b)));
            for (int b = 0; b < 8; ++b) os.put(static_cast<char>(t >> (8 * b)));
        }
        const std::string expected =
            file.path() + ": event " + std::to_string(bad_index) + " " + row.reason;
        const NatbinTailCursor before_bad{bad_index, valid[bad_index - 1]};
        EXPECT_EQ(message_of([&] { open_natbin(file.path()); }), expected);
        EXPECT_EQ(message_of([&] { open_natbin_tail(file.path()); }), expected);
        EXPECT_EQ(message_of([&] { open_natbin_tail(file.path(), before_bad); }), expected);
    }
}

TEST(NatbinRejection, HostileHeaderFieldsNeverReadOutOfBounds) {
    const std::string bytes = valid_natbin_bytes();
    // Fuzz every header byte through a few values; each mutant must either
    // load equal to the original or throw cleanly — never crash or read out
    // of bounds (ASan enforces the latter).
    const auto reference = open_natbin(
        TempFileGuard(write_temp("natscale_fuzz_ref.natbin", bytes)).path());
    for (std::size_t offset = 8; offset < kNatbinHeaderBytes; ++offset) {
        for (const unsigned char value : {0x00, 0x01, 0x7f, 0xff}) {
            std::string mutant = bytes;
            mutant[offset] = static_cast<char>(value);
            TempFileGuard file(write_temp("natscale_fuzz.natbin", mutant));
            try {
                const auto loaded = open_natbin(file.path());
                EXPECT_EQ(loaded.stream.num_events(), reference.stream.num_events());
            } catch (const std::exception&) {
                // Clean rejection is the expected outcome for most mutants.
            }
        }
    }
}

TEST(NatbinRejection, ZeroEventFileMatchesTextLoaderSemantics) {
    TempFileGuard file(temp_path("natscale_zero_events.natbin"));
    {
        NatbinWriter writer(file.path(), 3, 10, false);
        writer.finish();
    }
    EXPECT_THROW(open_natbin(file.path()), std::runtime_error);  // "no events", like text
}

TEST(NatbinRejection, TextFileFedToNatbinLoaderFailsCleanly) {
    TempFileGuard file(write_temp("natscale_text_as_natbin.txt", "0 1 5\n1 2 7\n"));
    EXPECT_THROW(open_natbin(file.path()), io_error);
    EXPECT_EQ(detect_stream_format(file.path()), StreamFormat::text);
    EXPECT_EQ(load_stream_auto(file.path()).stream.num_events(), 2u);
}

}  // namespace
}  // namespace natscale

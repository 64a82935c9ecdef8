// Tail-mode natbin: a reader polling a file a writer is still appending to.
// The strict loaders treat a count mismatch or trailing partial record as
// corruption; tail mode treats them as the normal states of a live file —
// verified here with a byte-truncation sweep over every possible cut, an
// explicit-flush visibility check, and incremental revalidation across
// reopens.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "linkstream/binary_io.hpp"
#include "linkstream/io.hpp"
#include "linkstream/link_stream.hpp"
#include "testing/temp_files.hpp"
#include "util/contracts.hpp"

namespace natscale {
namespace {

using natscale::testing::TempFileGuard;
using natscale::testing::temp_path;

std::vector<Event> sample_events() {
    return {{0, 1, 0}, {0, 2, 3}, {1, 2, 3}, {2, 3, 7}, {0, 3, 11}, {1, 3, 11}, {0, 1, 12}};
}

std::string write_sample(const std::string& name, bool finish) {
    const std::string path = temp_path(name);
    NatbinWriter writer(path, 4, 20, false);
    for (const Event& e : sample_events()) writer.append(e);
    if (finish) {
        writer.finish();
    } else {
        writer.flush();
    }
    return path;
}

std::vector<char> read_all(const std::string& path) {
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    std::vector<char> bytes(static_cast<std::size_t>(is.tellg()));
    is.seekg(0);
    is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return bytes;
}

TEST(NatbinTailMode, ByteTruncationSweep) {
    const std::string path = write_sample("tail_truncation.natbin", /*finish=*/true);
    TempFileGuard guard(path);
    const std::vector<char> bytes = read_all(path);
    const std::size_t header = kNatbinHeaderBytes;  // no label table in this file

    const std::string cut_path = temp_path("tail_truncation_cut.natbin");
    TempFileGuard cut_guard(cut_path);
    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
        {
            std::ofstream os(cut_path, std::ios::binary | std::ios::trunc);
            os.write(bytes.data(), static_cast<std::streamsize>(cut));
        }
        if (cut < header) {
            // Not even a full header: both modes must reject.
            EXPECT_THROW(open_natbin_tail(cut_path), std::exception) << "cut=" << cut;
            EXPECT_THROW(open_natbin(cut_path), std::exception) << "cut=" << cut;
            continue;
        }
        // Tail mode accepts any whole-header prefix: the complete records
        // are whatever fits, a partial trailing record is reported, never
        // rejected.
        const NatbinTail tail = open_natbin_tail(cut_path);
        EXPECT_EQ(tail.complete_records, (cut - header) / kNatbinRecordBytes)
            << "cut=" << cut;
        EXPECT_EQ(tail.trailing_bytes, (cut - header) % kNatbinRecordBytes)
            << "cut=" << cut;
        EXPECT_EQ(tail.num_nodes, 4u);
        EXPECT_EQ(tail.period_end, 20);
        EXPECT_FALSE(tail.directed);
        ASSERT_EQ(tail.events.size(), tail.complete_records);
        for (std::size_t i = 0; i < tail.events.size(); ++i) {
            EXPECT_EQ(tail.events[i], sample_events()[i]);
        }
        // finished() only on the exact, finished file.
        EXPECT_EQ(tail.finished(), cut == bytes.size());
        // The strict loader must keep rejecting every strict violation: a
        // finished header's count no longer matches the truncated records.
        if (cut < bytes.size()) {
            EXPECT_THROW(open_natbin(cut_path), std::exception) << "cut=" << cut;
        }
    }
}

TEST(NatbinTailMode, UnfinishedWriterIsReadableAfterFlush) {
    const std::string path = temp_path("tail_growing.natbin");
    TempFileGuard guard(path);
    NatbinWriter writer(path, 4, 20, false);
    const auto events = sample_events();

    writer.append(events[0]);
    writer.append(events[1]);
    writer.flush();
    // Header count still unpatched (0): strict load refuses a "no events"
    // file or sees trailing bytes; tail mode sees exactly the flushed
    // records and knows the file is not finished.
    NatbinTail tail = open_natbin_tail(path);
    EXPECT_EQ(tail.header_num_events, 0u);
    EXPECT_EQ(tail.complete_records, 2u);
    EXPECT_FALSE(tail.finished());
    EXPECT_EQ(tail.events[0], events[0]);
    EXPECT_EQ(tail.events[1], events[1]);

    // Incremental revalidation across a grow: only records [2, 5) are
    // re-checked, chaining the order check through record 1.
    writer.append(events[2]);
    writer.append(events[3]);
    writer.append(events[4]);
    writer.flush();
    tail = open_natbin_tail(path, tail_cursor(tail));
    EXPECT_EQ(tail.complete_records, 5u);
    EXPECT_FALSE(tail.finished());

    writer.append(events[5]);
    writer.append(events[6]);
    writer.finish();
    tail = open_natbin_tail(path, tail_cursor(tail));
    EXPECT_EQ(tail.complete_records, events.size());
    EXPECT_EQ(tail.header_num_events, events.size());
    EXPECT_TRUE(tail.finished());

    // The finished file round-trips through the strict loader too.
    const LoadedStream loaded = open_natbin(path);
    EXPECT_EQ(loaded.stream.num_events(), events.size());
}

TEST(NatbinTailMode, RejectsMalformedAppendsAndShrinkingFiles) {
    const std::string path = write_sample("tail_malformed.natbin", /*finish=*/false);
    TempFileGuard guard(path);
    const NatbinTailCursor validated = tail_cursor(open_natbin_tail(path));

    // A shrink below the validated prefix is a hard error (the reader's
    // frozen state references records that no longer exist).
    NatbinTailCursor beyond = validated;
    ++beyond.validated_records;
    EXPECT_THROW(open_natbin_tail(path, beyond), io_error);

    // Corrupt one record before the last, which a cursor checks as its
    // boundary (out-of-range endpoint): only reopens validating it see it.
    std::vector<char> bytes = read_all(path);
    const std::size_t corrupt = sample_events().size() - 2;
    const std::uint32_t bad_node = 0xFFu;
    std::memcpy(bytes.data() + kNatbinHeaderBytes + corrupt * kNatbinRecordBytes, &bad_node,
                sizeof(bad_node));
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    EXPECT_THROW(open_natbin_tail(path), io_error);
    // ... while a reader that already validated everything skips the check.
    EXPECT_NO_THROW(open_natbin_tail(path, validated));

    // Out-of-order append relative to the validated prefix.
    const std::string path2 = write_sample("tail_order.natbin", /*finish=*/false);
    TempFileGuard guard2(path2);
    const NatbinTailCursor before = tail_cursor(open_natbin_tail(path2));
    {
        std::ofstream os(path2, std::ios::binary | std::ios::app);
        const Event stale{0, 1, 1};  // t regresses below the last record
        os.write(reinterpret_cast<const char*>(&stale), sizeof(stale));
    }
    EXPECT_THROW(open_natbin_tail(path2, before), io_error);
}

TEST(NatbinTailMode, CursorDetectsTruncateAndRegrow) {
    // A file truncated and regrown past its previous size between polls
    // keeps (or exceeds) the old record count, so a count-only prefix check
    // cannot see the swap; the cursor also carries the last validated
    // record and rejects the impostor prefix.
    const std::string path = write_sample("tail_regrow.natbin", /*finish=*/false);
    TempFileGuard guard(path);
    const NatbinTail before = open_natbin_tail(path);
    const NatbinTailCursor cursor = tail_cursor(before);
    EXPECT_EQ(cursor.validated_records, sample_events().size());
    EXPECT_EQ(cursor.last_validated, sample_events().back());

    // Writer restart: same header shape, unrelated content, MORE records
    // than the validated prefix — the shrink check alone is satisfied.
    {
        NatbinWriter writer(path, 4, 20, false);
        for (Time t = 0; t < 10; ++t) writer.append({0, 2, t});
        writer.finish();
    }
    // The reopen refuses, naming the boundary record.
    try {
        open_natbin_tail(path, cursor);
        FAIL() << "regrown file accepted as a continuation";
    } catch (const io_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    }
}

TEST(NatbinTailMode, CursorAcceptsGenuineGrowth) {
    const std::string path = temp_path("tail_cursor_growth.natbin");
    TempFileGuard guard(path);
    NatbinWriter writer(path, 4, 20, false);
    writer.append({0, 1, 0});
    writer.append({0, 2, 3});
    writer.flush();

    NatbinTail tail = open_natbin_tail(path, NatbinTailCursor{});  // fresh cursor
    EXPECT_EQ(tail.complete_records, 2u);
    NatbinTailCursor cursor = tail_cursor(tail);
    EXPECT_EQ(cursor.validated_records, 2u);
    EXPECT_EQ(cursor.last_validated, (Event{0, 2, 3}));

    writer.append({1, 2, 5});
    writer.flush();
    tail = open_natbin_tail(path, cursor);
    EXPECT_EQ(tail.complete_records, 3u);
    cursor = tail_cursor(tail);
    EXPECT_EQ(cursor.last_validated, (Event{1, 2, 5}));

    // No growth between polls is fine too — the boundary still matches.
    EXPECT_NO_THROW(open_natbin_tail(path, cursor));
    writer.finish();
    tail = open_natbin_tail(path, cursor);
    EXPECT_TRUE(tail.finished());
}

TEST(NatbinTailMode, FlushThrowsAfterFinishViaContract) {
    const std::string path = temp_path("tail_flush_after_finish.natbin");
    TempFileGuard guard(path);
    NatbinWriter writer(path, 4, 20, false);
    writer.append({0, 1, 0});
    writer.finish();
    EXPECT_THROW(writer.flush(), contract_error);
}

}  // namespace
}  // namespace natscale

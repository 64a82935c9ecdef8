// Golden bytes of every binary format the library writes: online
// checkpoints, session snapshots, protocol frames and natbin files.
//
// The round-trip tests elsewhere prove that each reader accepts what its
// writer produces; they still pass when writer and reader drift together.
// These tests pin the bytes themselves, as the FNV-1a 64 of each image of a
// fixed input, so a restarted process keeps reading the files and frames
// older builds wrote.  A changed value here is a format change: bump the
// format's version instead of updating the constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/delta_grid.hpp"
#include "gen/registry.hpp"
#include "linkstream/binary_io.hpp"
#include "natscale/session.hpp"
#include "online/checkpoint.hpp"
#include "online/incremental_sweep.hpp"
#include "service/protocol.hpp"
#include "testing/temp_files.hpp"
#include "util/wire.hpp"

namespace natscale {
namespace {

/// Hex rendering, so a mismatch prints the value to compare against.
std::string hex(std::uint64_t value) {
    char text[19];
    std::snprintf(text, sizeof(text), "0x%016llx", static_cast<unsigned long long>(value));
    return text;
}

std::string hash_of(std::span<const std::byte> bytes) {
    return hex(wire::fnv1a64(bytes.data(), bytes.size()));
}

/// The fixed directed feed: a small enron replica (n = 15).  Its event
/// count is asserted first, so a generator change shows up there rather
/// than as a format change.
const LinkStream& directed_feed() {
    static const gen::GeneratedStream feed =
        gen::generate_stream("replica:dataset=enron,scale=0.1,seed=7");
    return feed.stream;
}

TEST(FormatGolden, CheckpointAfterHalfAndFullSync) {
    const LinkStream& stream = directed_feed();
    ASSERT_TRUE(stream.directed());
    const std::span<const Event> events = stream.events();
    ASSERT_EQ(events.size(), 1595u);

    OnlineSweepOptions options;
    options.grid = geometric_delta_grid(1, stream.period_end(), 12);
    options.num_threads = 1;
    OnlineSweepEngine engine(stream.num_nodes(), stream.directed(), options);

    const std::size_t half = events.size() / 2;
    engine.sync(events.first(half), events[half].t);
    const std::vector<std::byte> half_image = serialize_checkpoint(engine);
    EXPECT_EQ(half_image.size(), 391280u);
    EXPECT_EQ(hash_of(half_image), "0xea4216961a416cbc");

    engine.sync(events, stream.period_end());
    const std::vector<std::byte> full_image = serialize_checkpoint(engine);
    EXPECT_EQ(full_image.size(), 394240u);
    EXPECT_EQ(hash_of(full_image), "0x7ee091e863006200");

    // The reader takes the pinned bytes back without loss.
    EXPECT_EQ(serialize_checkpoint(restore_checkpoint(half_image, "golden")), half_image);
    EXPECT_EQ(serialize_checkpoint(restore_checkpoint(full_image, "golden")), full_image);
}

TEST(FormatGolden, SessionSnapshotWithPendingEvents) {
    const LinkStream& stream = directed_feed();
    const std::span<const Event> events = stream.events();
    ASSERT_EQ(events.size(), 1595u);

    SessionOptions options;
    options.grid = geometric_delta_grid(1, stream.period_end(), 8);
    options.config.num_threads = 1;
    options.ingest.period_end = stream.period_end();
    options.ingest.reorder_horizon = 86'400;  // one day of events stays pending
    StreamSession session(stream.num_nodes(), stream.directed(), options);
    session.append(events.first(events.size() * 2 / 3));
    ASSERT_LT(session.sealed_events(), session.counters().accepted);

    const std::vector<std::byte> image = session.serialize();
    EXPECT_EQ(image.size(), 276864u);
    EXPECT_EQ(hash_of(image), "0x3441fe634539f387");
    EXPECT_EQ(StreamSession::restore(image, "golden").serialize(), image);
}

TEST(FormatGolden, OneFrameOfEveryProtocolMessage) {
    using namespace service;
    const auto frame = [](MessageType type, std::span<const std::byte> payload) {
        std::vector<std::byte> bytes;
        append_frame(bytes, type, payload);
        return hash_of(bytes);
    };

    RegisterStream reg;
    reg.name = "sensors-42";
    reg.num_nodes = 1234;
    reg.directed = true;
    reg.period_end = 999'999;
    reg.grid_points = 64;
    reg.metric = 3;
    reg.histogram_bins = 500;
    reg.shannon_slots = 12;
    reg.reorder_horizon = 77;
    reg.drop_duplicates = true;
    reg.reject_late = false;

    StreamAck ack;
    ack.name = "sensors-42";
    ack.stream_id = 7;
    ack.resume_token = 0x0123456789abcdefULL;
    ack.acked_seq = 1000;
    ack.sealed_events = 990;
    ack.watermark = kInfiniteTime;

    Ingest ingest;
    ingest.stream_id = 7;
    ingest.first_seq = 1001;
    ingest.events = {{0, 1, 5}, {3, 9, 5}, {2, 4, 1'700'000'000'000}};

    IngestAck ingest_ack;
    ingest_ack.stream_id = 7;
    ingest_ack.acked_seq = 1003;
    ingest_ack.accepted = 1002;
    ingest_ack.duplicates_dropped = 1;
    ingest_ack.late_dropped = 0;

    Query query;
    query.stream_id = 7;
    query.kind = QueryKind::histogram;
    query.sealed_only = true;
    query.delta = 3600;

    QueryResult result;
    result.stream_id = 7;
    result.kind = QueryKind::curve;
    result.json = R"({"schema":1,"points":[]})";

    const std::vector<std::byte> none;
    EXPECT_EQ(frame(MessageType::hello, encode_hello({})), "0x48f3dd4844edf54d");
    EXPECT_EQ(frame(MessageType::hello_ack, encode_hello({})), "0x806f88910956c20e");
    EXPECT_EQ(frame(MessageType::error,
                    encode_error({ErrorCode::sequence_gap, "frame skips past acked_seq"})),
              "0x62fb9f1b26a8e07f");
    EXPECT_EQ(frame(MessageType::register_stream, encode_register_stream(reg)),
              "0x6fb932fd752fbb74");
    EXPECT_EQ(frame(MessageType::stream_ack, encode_stream_ack(ack)), "0x1b6285f668231535");
    EXPECT_EQ(frame(MessageType::attach_stream,
                    encode_attach_stream({"sensors-42", 0x0123456789abcdefULL})),
              "0x329693d5fc21a477");
    EXPECT_EQ(frame(MessageType::ingest, encode_ingest(ingest)), "0xbdbb45014f98d66f");
    EXPECT_EQ(frame(MessageType::ingest_ack, encode_ingest_ack(ingest_ack)),
              "0x03e4cb7cfbed32d6");
    EXPECT_EQ(frame(MessageType::close_stream, encode_close_stream({7})), "0x41b6664dbd78de13");
    EXPECT_EQ(frame(MessageType::query, encode_query(query)), "0xe7bf3f05889d0348");
    EXPECT_EQ(frame(MessageType::query_result, encode_query_result(result)),
              "0x465804717c7bb97c");
    EXPECT_EQ(frame(MessageType::stream_list, encode_stream_list({{"a", "sensors-42"}})),
              "0xf8c0ed97dd66ef83");
    EXPECT_EQ(frame(MessageType::stats_result, encode_stats_result({R"({"schema":1})"})),
              "0x77de0258df2c8331");
    // Requests and acknowledgements without a payload are a bare header.
    for (const MessageType type :
         {MessageType::checkpoint, MessageType::checkpoint_ack, MessageType::list_streams,
          MessageType::ping, MessageType::pong, MessageType::shutdown, MessageType::stats}) {
        std::vector<std::byte> expected(kFrameHeaderBytes);
        wire::put_u32(expected.data() + 4, static_cast<std::uint32_t>(type));
        std::vector<std::byte> bytes;
        append_frame(bytes, type, none);
        EXPECT_EQ(bytes, expected) << static_cast<std::uint32_t>(type);
    }
}

TEST(FormatGolden, LabelledNatbin) {
    const LinkStream stream({{0, 1, 2}, {1, 3, 2}, {0, 2, 9}, {2, 3, 41}}, 4, 50, false);
    const std::vector<std::string> labels{"alice", "bob", "", "dave-the-sensor"};
    testing::TempFileGuard file(testing::temp_path("natscale_golden.natbin"));
    save_natbin(file.path(), stream, labels);

    std::ifstream is(file.path(), std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());
    const auto* data = reinterpret_cast<const std::byte*>(text.data());
    EXPECT_EQ(text.size(), 176u);
    EXPECT_EQ(hash_of({data, text.size()}), "0xeb77aee889fe20c3");
    EXPECT_EQ(open_natbin(file.path()).node_labels, labels);
}

}  // namespace
}  // namespace natscale

// natscaled: the multi-stream time-scale service (tentpole of the service
// layer; protocol in service/protocol.hpp, spec in docs/protocol.md).
//
// One process hosts many named streams, each a natscale::StreamSession
// (ingestor + online sweep engine).  Clients connect over a Unix socket or
// TCP, register or re-attach to streams, push sequenced event batches, and
// query the current saturation scale, Gamma(Delta) curve, occupancy
// histograms, or ingest status — answers are the schema-1 JSON reports of
// natscale/report_schema, bit-identical over the sealed prefix to a cold
// batch sweep of the same events.
//
// --- Threading model --------------------------------------------------------
//
// One IO thread runs the epoll loop: accept, read, frame decode, and all
// socket writes.  It never executes analysis.  Every frame that touches a
// stream (ingest, close, query, checkpoint) becomes a task on the stream's
// STRAND — a FIFO queue drained by a shared worker pool with at most one
// worker per stream at a time.  So:
//   * frames of one stream apply in arrival order (exactness),
//   * a slow query on stream A never delays ingestion into stream B, and
//     never stalls the IO thread (ingestion keeps flowing: frames are
//     parsed, enqueued and acknowledged asynchronously),
//   * no per-stream state needs a lock beyond the strand queues' own.
// Workers append replies to the connection's outbox and wake the IO thread
// through an eventfd; the IO thread flushes (EPOLLOUT when the socket is
// full).
//
// --- Fault containment ------------------------------------------------------
//
// Malformed frames (oversized, truncated, unknown enumerators) answer with
// an error frame and close that connection; semantically invalid requests
// (unknown stream, stale resume token, sequence gap, contract-violating
// events) answer with an error frame and keep the connection — none of
// them can crash or wedge the daemon (tests/test_service_protocol.cpp
// fuzzes this).  A register whose engine would start above
// kMaxRegisterStateBytes is refused before anything is allocated, and any
// other exception a request raises, on the IO thread or in a strand task,
// answers that connection with an `internal` error frame.
//
// --- Persistence ------------------------------------------------------------
//
// With a state directory configured, `checkpoint` frames (and graceful
// shutdown) persist every stream — resume bookkeeping plus the complete
// StreamSession snapshot — to <state_dir>/<name>.natstream, written
// atomically (tmp + rename).  At startup the directory is reloaded, so a
// restarted daemon answers bit-identically to one that never stopped, and
// ingestors resume from the checkpointed acked_seq.  A state file is
// little-endian, in util/wire.hpp's checksummed envelope ("NATSSRV1",
// version 1), and read through its one bounds-checked wire::Reader:
//
//   offset  size  field
//   0       8     magic "NATSSRV1"
//   8       4     version (u32) = 1
//   12      4     reserved = 0
//   16      8     resume token (u64)
//   24      8     acked_seq (u64)
//   32      4     name length (u32, <= 128), then the name's bytes
//   ...     8     session snapshot length (u64), then the snapshot
//                 (natscale/session.hpp)
//   end-8   8     FNV-1a 64 checksum of everything before it
//
// A truncated or corrupted file makes construction throw io_error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace natscale::service {

/// Largest up-front engine state (OnlineSweepEngine::initial_state_bytes)
/// one register request may ask for: 1 GiB.  It admits every dense engine
/// (at most kDenseMemoryBudgetBytes = 192 MiB of tables, e.g. n = 1024 at
/// 24 grid points) with room for its histograms, and sparse engines up to
/// about 38 million node-periods (n = 10^6 at 38 points).  A register
/// frame is a few dozen bytes; without this bound one of them could make
/// the daemon allocate without limit and take every hosted stream down.
inline constexpr std::uint64_t kMaxRegisterStateBytes = std::uint64_t{1} << 30;

struct ServerOptions {
    /// Unix-socket listener path; empty = no Unix listener.  An existing
    /// socket file at the path is replaced.
    std::string unix_path;

    /// TCP listener; empty host = no TCP listener, port 0 = ephemeral
    /// (query the bound port with Server::tcp_port()).
    std::string tcp_host;
    std::uint16_t tcp_port = 0;

    /// Stream persistence directory; empty = no persistence (checkpoint
    /// frames answer bad_request).
    std::string state_dir;

    /// Worker threads draining the stream strands (1 to
    /// ThreadPool::kMaxThreads).
    std::size_t workers = 2;

    /// Per-engine sync/refresh fan-out (OnlineSweepOptions::num_threads, at
    /// most ThreadPool::kMaxThreads); 1 = sequential, the safe default under
    /// a worker pool.  Results are bit-identical for every value.
    std::size_t engine_threads = 1;
};

/// The daemon.  Construction binds the listeners and reloads the state
/// directory; run() blocks on the epoll loop until stop(), a shutdown
/// frame, or a fatal listener error.  stop() is thread-safe.
class Server {
public:
    /// Throws std::runtime_error when a listener cannot be bound or the
    /// state directory cannot be read, io_error when a state file is
    /// malformed.  Throws contract_error, before any listener binds, unless
    /// at least one listener is configured and both thread counts are within
    /// their bounds above.
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Port actually bound by the TCP listener (== options.tcp_port unless
    /// it was 0); 0 when no TCP listener is configured.
    std::uint16_t tcp_port() const noexcept;

    /// Runs the IO loop on the calling thread until stopped.  On graceful
    /// exit (stop() or shutdown frame), checkpoints every stream to the
    /// state directory (when configured) before returning.
    void run();

    /// Requests run() to return; safe from any thread and from before
    /// run() starts.
    void stop();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace natscale::service

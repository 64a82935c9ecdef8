#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <limits>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/delta_grid.hpp"
#include "linkstream/io.hpp"
#include "natscale/report_schema.hpp"
#include "natscale/session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/incremental_sweep.hpp"
#include "service/protocol.hpp"
#include "util/atomic_file.hpp"
#include "util/contracts.hpp"
#include "util/fd_io.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "util/wire.hpp"

namespace natscale::service {

namespace {

constexpr std::size_t kMaxStreamName = 128;
/// Smallest state file: envelope header, reserved, resume token, acked_seq,
/// empty name, snapshot length and checksum.
constexpr wire::Envelope kStateFormat{"NATSSRV1", 1, "daemon state file",
                                      8 + 4 + 4 + 8 + 8 + 4 + 8 + 8};
constexpr std::size_t kReadChunk = 64 * 1024;

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

const char* request_name(MessageType type) {
    switch (type) {
        case MessageType::hello: return "hello";
        case MessageType::register_stream: return "register_stream";
        case MessageType::attach_stream: return "attach_stream";
        case MessageType::ingest: return "ingest";
        case MessageType::close_stream: return "close_stream";
        case MessageType::query: return "query";
        case MessageType::checkpoint: return "checkpoint";
        case MessageType::list_streams: return "list_streams";
        case MessageType::ping: return "ping";
        case MessageType::shutdown: return "shutdown";
        case MessageType::stats: return "stats";
        default: return "unknown";
    }
}

bool valid_stream_name(const std::string& name) {
    if (name.empty() || name.size() > kMaxStreamName) return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
        if (!ok) return false;
    }
    // Reject names that could escape the state dir or hide as dotfiles.
    return name.front() != '.';
}

/// One client connection.  The IO thread owns fd/reader and all socket
/// calls; workers only append to the outbox under the mutex.
struct Connection {
    explicit Connection(int fd_in) : fd(fd_in) {}

    int fd;
    FrameReader reader;
    bool said_hello = false;
    bool want_writable = false;  // EPOLLOUT currently armed

    std::mutex mutex;
    std::vector<std::byte> outbox;  // guarded by mutex
    std::size_t sent = 0;           // outbox prefix already written
    bool close_after_flush = false;
    bool closed = false;  // fd is gone; workers must drop replies
};

using ConnectionPtr = std::shared_ptr<Connection>;

/// One hosted stream.  All session/resume state is touched exclusively by
/// strand tasks (at most one worker at a time, in FIFO order), so none of
/// it needs its own lock.
struct StreamState {
    std::uint64_t id = 0;
    std::string name;
    std::uint64_t resume_token = 0;
    std::uint64_t acked_seq = 0;
    std::unique_ptr<StreamSession> session;

    // Strand queue (guarded by Impl::strands_mutex_).
    std::deque<std::function<void()>> tasks;
    bool scheduled = false;
};

using StreamPtr = std::shared_ptr<StreamState>;

}  // namespace

struct Server::Impl {
    explicit Impl(ServerOptions options) : options_(std::move(options)) {
        NATSCALE_EXPECTS(options_.workers >= 1 && options_.workers <= ThreadPool::kMaxThreads);
        NATSCALE_EXPECTS(options_.engine_threads <= ThreadPool::kMaxThreads);
        NATSCALE_EXPECTS(!options_.unix_path.empty() || !options_.tcp_host.empty());
        try {
            if (!options_.state_dir.empty()) load_state_dir();
            if (!options_.unix_path.empty()) bind_unix();
            if (!options_.tcp_host.empty()) bind_tcp();
            epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
            if (epoll_fd_ < 0) throw_errno("epoll_create1");
            wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
            if (wake_fd_ < 0) throw_errno("eventfd");
            watch(wake_fd_, EPOLLIN);
            if (unix_fd_ >= 0) watch(unix_fd_, EPOLLIN);
            if (tcp_fd_ >= 0) watch(tcp_fd_, EPOLLIN);
        } catch (...) {
            close_fds();
            throw;
        }
    }

    ~Impl() { close_fds(); }

    // --- lifecycle ---------------------------------------------------------

    void run() {
        start_workers();
        try {
            serve();
        } catch (...) {
            // A std::thread destroyed while joinable aborts the process:
            // the workers are joined on this exit path too.
            stop_workers();
            throw;
        }
        stop_workers();
        flush_all_best_effort();
        disconnect_all();
        if (!options_.state_dir.empty()) checkpoint_all_direct();
    }

    void stop() {
        stop_.store(true, std::memory_order_release);
        wake();
    }

    /// The epoll loop, until stop().
    void serve() {
        std::vector<epoll_event> events(64);
        while (!stop_.load(std::memory_order_acquire)) {
            const int n = epoll_wait(epoll_fd_, events.data(),
                                     static_cast<int>(events.size()), -1);
            if (n < 0) {
                if (errno == EINTR) continue;
                throw_errno("epoll_wait");
            }
            for (int i = 0; i < n; ++i) {
                const int fd = static_cast<int>(events[i].data.fd);
                if (fd == wake_fd_) {
                    drain_wake();
                    flush_pending();
                } else if (fd == unix_fd_ || fd == tcp_fd_) {
                    accept_all(fd);
                } else {
                    handle_socket(fd, events[i].events);
                }
            }
        }
    }

    std::uint16_t tcp_port() const noexcept { return bound_port_; }

    // --- listeners ---------------------------------------------------------

    void bind_unix() {
        unix_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (unix_fd_ < 0) throw_errno("socket(AF_UNIX)");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
            throw std::runtime_error("unix socket path too long: " + options_.unix_path);
        }
        std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ::unlink(options_.unix_path.c_str());
        if (bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
            throw_errno("bind(" + options_.unix_path + ")");
        }
        if (listen(unix_fd_, SOMAXCONN) < 0) throw_errno("listen");
    }

    void bind_tcp() {
        tcp_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (tcp_fd_ < 0) throw_errno("socket(AF_INET)");
        const int one = 1;
        setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(options_.tcp_port);
        if (inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) != 1) {
            throw std::runtime_error("bad TCP host (numeric IPv4 expected): " +
                                     options_.tcp_host);
        }
        if (bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
            throw_errno("bind(" + options_.tcp_host + ")");
        }
        if (listen(tcp_fd_, SOMAXCONN) < 0) throw_errno("listen");
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
            throw_errno("getsockname");
        }
        bound_port_ = ntohs(bound.sin_port);
    }

    void watch(int fd, std::uint32_t events) {
        epoll_event ev{};
        ev.events = events;
        ev.data.fd = fd;
        if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) throw_errno("epoll_ctl");
    }

    void rearm(int fd, std::uint32_t events) {
        epoll_event ev{};
        ev.events = events;
        ev.data.fd = fd;
        if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) < 0) throw_errno("epoll_ctl");
    }

    // --- connections (IO thread) -------------------------------------------

    void accept_all(int listener) {
        for (;;) {
            const int fd = accept4(listener, nullptr, nullptr,
                                   SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd < 0) {
                if (errno == EAGAIN || errno == EWOULDBLOCK) return;
                if (errno == EINTR) continue;
                return;  // transient accept failure; keep serving
            }
            auto conn = std::make_shared<Connection>(fd);
            connections_.emplace(fd, conn);
            watch(fd, EPOLLIN);
        }
    }

    void handle_socket(int fd, std::uint32_t events) {
        const auto at = connections_.find(fd);
        if (at == connections_.end()) return;  // raced with disconnect
        const ConnectionPtr conn = at->second;
        if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
            disconnect(conn);
            return;
        }
        if ((events & EPOLLOUT) != 0) flush(conn);
        if ((events & EPOLLIN) != 0) read_frames(conn);
    }

    void read_frames(const ConnectionPtr& conn) {
        std::byte chunk[kReadChunk];
        for (;;) {
            const ssize_t n = fdio::recv_retry(conn->fd, chunk, sizeof(chunk));
            if (n > 0) {
                try {
                    conn->reader.feed(std::span<const std::byte>(
                        chunk, static_cast<std::size_t>(n)));
                    Frame frame;
                    while (conn->reader.next(frame)) dispatch_guarded(conn, frame);
                } catch (const protocol_error& e) {
                    // Unparsable framing or payload: the byte stream can no
                    // longer be trusted — answer and hang up.
                    send_error(conn, e.code(), e.what());
                    hang_up_after_flush(conn);
                    return;
                }
                continue;
            }
            if (n == 0) {
                disconnect(conn);
                return;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            disconnect(conn);
            return;
        }
    }

    void disconnect(const ConnectionPtr& conn) {
        {
            std::lock_guard lock(conn->mutex);
            if (conn->closed) return;
            conn->closed = true;
        }
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
        ::close(conn->fd);
        connections_.erase(conn->fd);
    }

    void disconnect_all() {
        while (!connections_.empty()) disconnect(connections_.begin()->second);
    }

    void hang_up_after_flush(const ConnectionPtr& conn) {
        bool already_flushed = false;
        {
            std::lock_guard lock(conn->mutex);
            conn->close_after_flush = true;
            already_flushed = conn->outbox.size() == conn->sent;
        }
        if (already_flushed) {
            disconnect(conn);
        } else {
            flush(conn);
        }
    }

    // --- outbox ------------------------------------------------------------

    /// Queues one frame on the connection (any thread) and wakes the IO
    /// thread when called off it.
    void send_frame(const ConnectionPtr& conn, MessageType type,
                    std::span<const std::byte> payload) {
        {
            std::lock_guard lock(conn->mutex);
            if (conn->closed) return;
            append_frame(conn->outbox, type, payload);
        }
        if (std::this_thread::get_id() == io_thread_) {
            flush(conn);
        } else {
            wake();
        }
    }

    void send_error(const ConnectionPtr& conn, ErrorCode code,
                    const std::string& message) {
        ErrorMessage error;
        error.code = code;
        error.message = message;
        send_frame(conn, MessageType::error, encode_error(error));
    }

    /// Writes as much of the outbox as the socket takes (IO thread only).
    void flush(const ConnectionPtr& conn) {
        bool close_now = false;
        bool want_writable = false;
        {
            std::lock_guard lock(conn->mutex);
            if (conn->closed) return;
            while (conn->sent < conn->outbox.size()) {
                const ssize_t n =
                    fdio::send_retry(conn->fd, conn->outbox.data() + conn->sent,
                                     conn->outbox.size() - conn->sent);
                if (n >= 0) {
                    conn->sent += static_cast<std::size_t>(n);
                    continue;
                }
                if (errno == EAGAIN || errno == EWOULDBLOCK) {
                    want_writable = true;
                    break;
                }
                close_now = true;  // broken pipe etc.
                break;
            }
            if (conn->sent == conn->outbox.size()) {
                conn->outbox.clear();
                conn->sent = 0;
                if (conn->close_after_flush) close_now = true;
            }
            // Last-observed pending bytes on this connection: a sustained
            // nonzero value means a reader is not keeping up.
            static obs::Gauge& outbox_depth = obs::gauge("service.outbox_depth_bytes");
            outbox_depth.set(
                static_cast<std::int64_t>(conn->outbox.size() - conn->sent));
            if (want_writable != conn->want_writable && !close_now) {
                conn->want_writable = want_writable;
                rearm(conn->fd, want_writable ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
            }
        }
        if (close_now) disconnect(conn);
    }

    void flush_pending() {
        // Connection counts are small (a handful of ingestors + queriers);
        // scanning them on every wake is simpler and cheaper than a
        // dedicated pending set.
        std::vector<ConnectionPtr> conns;
        conns.reserve(connections_.size());
        for (const auto& [fd, conn] : connections_) conns.push_back(conn);
        for (const ConnectionPtr& conn : conns) {
            bool has_pending = false;
            {
                std::lock_guard lock(conn->mutex);
                has_pending = !conn->closed && conn->sent < conn->outbox.size();
            }
            if (has_pending) flush(conn);
        }
    }

    void flush_all_best_effort() {
        // Exit path: give queued replies (e.g. the shutdown ack) a brief
        // synchronous chance to leave before the fds close.
        for (int round = 0; round < 50; ++round) {
            bool pending = false;
            flush_pending();
            for (const auto& [fd, conn] : connections_) {
                std::lock_guard lock(conn->mutex);
                pending |= !conn->closed && conn->sent < conn->outbox.size();
            }
            if (!pending) return;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    void wake() {
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
    }

    void drain_wake() {
        std::uint64_t count = 0;
        while (::read(wake_fd_, &count, sizeof(count)) > 0) {
        }
    }

    // --- strands + worker pool ---------------------------------------------

    void start_workers() {
        io_thread_ = std::this_thread::get_id();
        workers_stop_ = false;
        for (std::size_t i = 0; i < options_.workers; ++i) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    }

    void stop_workers() {
        {
            std::lock_guard lock(strands_mutex_);
            workers_stop_ = true;
        }
        strands_cv_.notify_all();
        for (std::thread& worker : workers_) worker.join();
        workers_.clear();
    }

    /// Queues `task` on the stream's strand.  An exception it throws
    /// answers `conn`, the connection that asked for it, with an internal
    /// error; the worker and the strand carry on.
    void enqueue(const StreamPtr& stream, const ConnectionPtr& conn,
                 std::function<void()> task) {
        // Queue-delay gauge: last observed enqueue-to-start latency, the
        // live signal that the worker pool is saturated.
        static obs::Gauge& queue_delay = obs::gauge("service.strand_queue_delay_ns");
        const std::uint64_t queued_ns = obs::TraceSink::now_ns();
        auto timed = [this, conn, queued_ns, task = std::move(task)] {
            queue_delay.set(
                static_cast<std::int64_t>(obs::TraceSink::now_ns() - queued_ns));
            try {
                task();
            } catch (const std::exception& e) {
                send_error(conn, ErrorCode::internal, e.what());
            }
        };
        {
            std::lock_guard lock(strands_mutex_);
            stream->tasks.push_back(std::move(timed));
            if (stream->scheduled) return;
            stream->scheduled = true;
            ready_.push_back(stream);
        }
        strands_cv_.notify_one();
    }

    void worker_loop() {
        for (;;) {
            StreamPtr stream;
            {
                std::unique_lock lock(strands_mutex_);
                strands_cv_.wait(lock, [this] { return workers_stop_ || !ready_.empty(); });
                if (workers_stop_) return;
                stream = std::move(ready_.front());
                ready_.pop_front();
            }
            // Drain this stream's queue exclusively (the strand guarantee).
            for (;;) {
                std::function<void()> task;
                {
                    std::lock_guard lock(strands_mutex_);
                    if (stream->tasks.empty() || workers_stop_) {
                        stream->scheduled = false;
                        break;
                    }
                    task = std::move(stream->tasks.front());
                    stream->tasks.pop_front();
                }
                task();
            }
        }
    }

    // --- registry ----------------------------------------------------------

    StreamPtr find_by_id(std::uint64_t id) {
        std::lock_guard lock(streams_mutex_);
        const auto at = streams_by_id_.find(id);
        return at == streams_by_id_.end() ? nullptr : at->second;
    }

    StreamPtr find_by_name(const std::string& name) {
        std::lock_guard lock(streams_mutex_);
        const auto at = streams_by_name_.find(name);
        return at == streams_by_name_.end() ? nullptr : at->second;
    }

    void add_stream(const StreamPtr& stream) {
        std::lock_guard lock(streams_mutex_);
        stream->id = next_stream_id_++;
        streams_by_name_.emplace(stream->name, stream);
        streams_by_id_.emplace(stream->id, stream);
    }

    std::uint64_t mint_token() {
        std::uniform_int_distribution<std::uint64_t> any;
        std::uint64_t token = 0;
        while (token == 0) token = any(token_rng_);  // 0 = read-only attach
        return token;
    }

    // --- dispatch (IO thread) ----------------------------------------------

    /// dispatch, with any other failure of the request answered as an
    /// internal error: its frame was read whole, so the connection stays
    /// in step and keeps being served.  Framing errors still propagate.
    void dispatch_guarded(const ConnectionPtr& conn, const Frame& frame) {
        try {
            dispatch(conn, frame);
        } catch (const protocol_error&) {
            throw;
        } catch (const std::exception& e) {
            send_error(conn, ErrorCode::internal, e.what());
        }
    }

    void dispatch(const ConnectionPtr& conn, const Frame& frame) {
        if (!conn->said_hello) {
            if (frame.type != MessageType::hello) {
                throw protocol_error(ErrorCode::bad_frame, "expected hello first");
            }
            const Hello hello = parse_hello(frame.payload);
            if (hello.version != kProtocolVersion) {
                throw protocol_error(ErrorCode::bad_frame,
                                     "unsupported protocol version " +
                                         std::to_string(hello.version));
            }
            conn->said_hello = true;
            send_frame(conn, MessageType::hello_ack, encode_hello(Hello{}));
            return;
        }
        static obs::Counter& requests = obs::counter("service.requests");
        requests.add();
        obs::Span span("service.request");
        if (span.active()) {
            span.attr("type", std::string_view(request_name(frame.type)));
            span.attr("fd", static_cast<std::int64_t>(conn->fd));
        }
        switch (frame.type) {
            case MessageType::hello:
                throw protocol_error(ErrorCode::bad_frame, "duplicate hello");
            case MessageType::register_stream:
                handle_register(conn, parse_register_stream(frame.payload));
                return;
            case MessageType::attach_stream:
                handle_attach(conn, parse_attach_stream(frame.payload));
                return;
            case MessageType::ingest:
                handle_ingest(conn, parse_ingest(frame.payload));
                return;
            case MessageType::close_stream:
                handle_close(conn, parse_close_stream(frame.payload));
                return;
            case MessageType::query:
                handle_query(conn, parse_query(frame.payload));
                return;
            case MessageType::checkpoint:
                handle_checkpoint(conn, /*then_stop=*/false);
                return;
            case MessageType::list_streams:
                handle_list(conn);
                return;
            case MessageType::ping:
                send_frame(conn, MessageType::pong, {});
                return;
            case MessageType::shutdown:
                handle_checkpoint(conn, /*then_stop=*/true);
                return;
            case MessageType::stats: {
                StatsResult result;
                result.json = metrics_snapshot_json(obs::metrics_snapshot());
                send_frame(conn, MessageType::stats_result,
                           encode_stats_result(result));
                return;
            }
            default:
                send_error(conn, ErrorCode::unknown_type,
                           "unknown message type " +
                               std::to_string(static_cast<std::uint32_t>(frame.type)));
                return;
        }
    }

    void handle_register(const ConnectionPtr& conn, const RegisterStream& msg) {
        if (!valid_stream_name(msg.name)) {
            send_error(conn, ErrorCode::bad_request,
                       "stream names are [A-Za-z0-9_.-], not dot-led, <= 128 chars");
            return;
        }
        if (msg.num_nodes < 2 || msg.num_nodes > std::numeric_limits<NodeId>::max()) {
            send_error(conn, ErrorCode::bad_request, "num_nodes out of range");
            return;
        }
        if (msg.period_end < 1) {
            send_error(conn, ErrorCode::bad_request,
                       "period_end must be >= 1 (the daemon derives the Delta "
                       "grid from the period of study)");
            return;
        }
        // A geometric grid spans two ends (geometric_delta_grid's count >= 2).
        if (msg.grid_points < 2 || msg.grid_points > kMaxGridPoints) {
            send_error(conn, ErrorCode::bad_request,
                       "grid_points must be in [2, " + std::to_string(kMaxGridPoints) + "]");
            return;
        }
        if (msg.metric > static_cast<std::uint32_t>(UniformityMetric::cre)) {
            send_error(conn, ErrorCode::bad_request, "unknown uniformity metric");
            return;
        }
        if (msg.histogram_bins > (1u << 20) ||
            msg.shannon_slots < 1 || msg.shannon_slots > kMaxShannonSlots) {
            send_error(conn, ErrorCode::bad_request, "bad histogram resolution");
            return;
        }
        if (msg.reorder_horizon < 0) {
            send_error(conn, ErrorCode::bad_request, "negative reorder horizon");
            return;
        }
        if (find_by_name(msg.name)) {
            send_error(conn, ErrorCode::bad_request,
                       "stream '" + msg.name + "' already exists; attach instead");
            return;
        }
        const std::size_t bins =
            msg.histogram_bins != 0 ? msg.histogram_bins : Histogram01::kDefaultBins;
        const std::uint64_t state_bytes = OnlineSweepEngine::initial_state_bytes(
            static_cast<NodeId>(msg.num_nodes),
            geometric_delta_grid(1, msg.period_end, msg.grid_points).size(), bins);
        if (state_bytes > kMaxRegisterStateBytes) {
            send_error(conn, ErrorCode::bad_request,
                       "stream state of " + std::to_string(state_bytes) +
                           " bytes exceeds the per-stream limit of " +
                           std::to_string(kMaxRegisterStateBytes) + " bytes");
            return;
        }

        SessionOptions options;
        options.config.metric = static_cast<UniformityMetric>(msg.metric);
        options.config.coarse_points = msg.grid_points;
        if (msg.histogram_bins != 0) options.config.histogram_bins = msg.histogram_bins;
        options.config.shannon_slots = msg.shannon_slots;
        options.config.num_threads = options_.engine_threads;
        options.ingest.period_end = msg.period_end;
        options.ingest.reorder_horizon = msg.reorder_horizon;
        options.ingest.duplicates =
            msg.drop_duplicates ? DuplicatePolicy::drop : DuplicatePolicy::keep;
        options.ingest.late = msg.reject_late ? LatePolicy::reject : LatePolicy::drop;

        auto stream = std::make_shared<StreamState>();
        stream->name = msg.name;
        stream->resume_token = mint_token();
        try {
            stream->session = std::make_unique<StreamSession>(
                static_cast<NodeId>(msg.num_nodes), msg.directed, std::move(options));
        } catch (const contract_error& e) {
            send_error(conn, ErrorCode::bad_request, e.what());
            return;
        }
        add_stream(stream);
        send_frame(conn, MessageType::stream_ack,
                   encode_stream_ack(ack_of(*stream, /*reveal_token=*/true)));
    }

    void handle_attach(const ConnectionPtr& conn, const AttachStream& msg) {
        const StreamPtr stream = find_by_name(msg.name);
        if (!stream) {
            send_error(conn, ErrorCode::unknown_stream,
                       "no stream named '" + msg.name + "'");
            return;
        }
        // Token 0 = read-only attach (queries only; the real token is not
        // revealed).  A wrong non-zero token is a stale resume attempt.
        if (msg.resume_token != 0 && msg.resume_token != stream->resume_token) {
            send_error(conn, ErrorCode::stale_token,
                       "resume token does not match stream '" + msg.name + "'");
            return;
        }
        const bool reveal = msg.resume_token == stream->resume_token;
        // Resume state (acked_seq, watermark) is strand-owned: answer from
        // the strand so an attach racing in-flight ingest sees a settled
        // value, not a torn one.
        enqueue(stream, conn, [this, conn, stream, reveal] {
            send_frame(conn, MessageType::stream_ack,
                       encode_stream_ack(ack_of(*stream, reveal)));
        });
    }

    StreamAck ack_of(const StreamState& stream, bool reveal_token) {
        StreamAck ack;
        ack.name = stream.name;
        ack.stream_id = stream.id;
        ack.resume_token = reveal_token ? stream.resume_token : 0;
        ack.acked_seq = stream.acked_seq;
        ack.sealed_events = stream.session->sealed_events();
        ack.watermark = stream.session->watermark();
        return ack;
    }

    void handle_ingest(const ConnectionPtr& conn, Ingest msg) {
        const StreamPtr stream = find_by_id(msg.stream_id);
        if (!stream) {
            send_error(conn, ErrorCode::unknown_stream,
                       "no stream with id " + std::to_string(msg.stream_id));
            return;
        }
        enqueue(stream, conn, [this, conn, stream, msg = std::move(msg)] {
            apply_ingest(conn, stream, msg);
        });
    }

    void apply_ingest(const ConnectionPtr& conn, const StreamPtr& stream,
                      const Ingest& msg) {
        obs::Span span("service.ingest");
        if (span.active()) {
            span.attr("stream", std::string_view(stream->name));
            span.attr("events", static_cast<std::uint64_t>(msg.events.size()));
        }
        // Per-stream instrument: interned once per (stream, kind) pair, so
        // the mutex-map lookup happens at batch granularity, not per event.
        obs::Counter& batches =
            obs::counter("service.stream." + stream->name + ".ingest_batches");
        obs::Counter& events =
            obs::counter("service.stream." + stream->name + ".ingest_events");
        batches.add();
        events.add(msg.events.size());
        if (msg.first_seq > stream->acked_seq + 1) {
            send_error(conn, ErrorCode::sequence_gap,
                       "ingest starts at seq " + std::to_string(msg.first_seq) +
                           " but only " + std::to_string(stream->acked_seq) +
                           " are acknowledged");
            return;
        }
        // Skip the prefix already applied (duplicate replay after a lost
        // ack); apply the rest exactly once.
        const std::uint64_t skip =
            stream->acked_seq >= msg.first_seq ? stream->acked_seq - msg.first_seq + 1
                                               : 0;
        try {
            for (std::size_t i = static_cast<std::size_t>(skip); i < msg.events.size();
                 ++i) {
                stream->session->append(msg.events[i]);
                stream->acked_seq = msg.first_seq + i;
            }
        } catch (const contract_error& e) {
            // acked_seq stopped at the last good event: a corrected client
            // can resume from there.
            send_error(conn, ErrorCode::ingest_error, e.what());
            return;
        }
        if (!msg.events.empty()) {
            stream->acked_seq =
                std::max(stream->acked_seq, msg.first_seq + msg.events.size() - 1);
        }
        IngestAck ack;
        ack.stream_id = stream->id;
        ack.acked_seq = stream->acked_seq;
        const IngestorCounters& counters = stream->session->counters();
        ack.accepted = counters.accepted;
        ack.duplicates_dropped = counters.duplicates_dropped;
        ack.late_dropped = counters.late_dropped;
        send_frame(conn, MessageType::ingest_ack, encode_ingest_ack(ack));
    }

    void handle_close(const ConnectionPtr& conn, const CloseStream& msg) {
        const StreamPtr stream = find_by_id(msg.stream_id);
        if (!stream) {
            send_error(conn, ErrorCode::unknown_stream,
                       "no stream with id " + std::to_string(msg.stream_id));
            return;
        }
        enqueue(stream, conn, [this, conn, stream] {
            if (!stream->session->closed()) stream->session->close();
            send_frame(conn, MessageType::stream_ack,
                       encode_stream_ack(ack_of(*stream, /*reveal_token=*/false)));
        });
    }

    void handle_query(const ConnectionPtr& conn, const Query& msg) {
        const StreamPtr stream = find_by_id(msg.stream_id);
        if (!stream) {
            send_error(conn, ErrorCode::unknown_stream,
                       "no stream with id " + std::to_string(msg.stream_id));
            return;
        }
        enqueue(stream, conn, [this, conn, stream, msg] { answer_query(conn, stream, msg); });
    }

    void answer_query(const ConnectionPtr& conn, const StreamPtr& stream,
                      const Query& msg) {
        obs::Span span("service.query");
        if (span.active()) {
            span.attr("stream", std::string_view(stream->name));
            span.attr("kind", static_cast<std::uint64_t>(msg.kind));
        }
        obs::counter("service.stream." + stream->name + ".queries").add();
        StreamSession& session = *stream->session;
        const auto started = std::chrono::steady_clock::now();
        ReportContext context;
        context.stream = stream->name;
        context.watermark = session.watermark();
        context.sealed_only = msg.sealed_only;
        context.finished = session.closed();

        QueryResult result;
        result.stream_id = stream->id;
        result.kind = msg.kind;
        try {
            switch (msg.kind) {
                case QueryKind::saturation:
                case QueryKind::curve: {
                    const OnlineReport report = session.report(msg.sealed_only);
                    context.events = report.events_covered;
                    context.refresh_seconds = seconds_since(started);
                    result.json = msg.kind == QueryKind::saturation
                                      ? online_report_json(report, session.metric(), context)
                                      : curve_json(report, session.metric(), context);
                    break;
                }
                case QueryKind::histogram: {
                    const std::span<const Time> grid = session.grid();
                    if (std::find(grid.begin(), grid.end(), msg.delta) == grid.end()) {
                        send_error(conn, ErrorCode::bad_request,
                                   "delta " + std::to_string(msg.delta) +
                                       " is not a maintained grid period");
                        return;
                    }
                    const Histogram01 histogram =
                        session.histogram_at(msg.delta, msg.sealed_only);
                    const IngestorCounters& counters = session.counters();
                    context.events = counters.accepted - counters.duplicates_dropped -
                                     counters.late_dropped;
                    if (msg.sealed_only) context.events = session.sealed_events();
                    context.refresh_seconds = seconds_since(started);
                    result.json = histogram_json(histogram, msg.delta, context);
                    break;
                }
                case QueryKind::status: {
                    result.json = status_json(*stream, context);
                    break;
                }
            }
        } catch (const std::exception& e) {
            send_error(conn, ErrorCode::internal, e.what());
            return;
        }
        send_frame(conn, MessageType::query_result, encode_query_result(result));
    }

    static double seconds_since(std::chrono::steady_clock::time_point started) {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    }

    std::string status_json(const StreamState& stream, const ReportContext& context) {
        const StreamSession& session = *stream.session;
        const IngestorCounters& counters = session.counters();
        JsonWriter json;
        json.begin_object();
        json.field("schema", kReportSchemaVersion);
        json.field("stream", stream.name);
        json.field("events",
                   counters.accepted - counters.duplicates_dropped - counters.late_dropped);
        json.field("watermark_ticks",
                   context.watermark == kInfiniteTime
                       ? std::int64_t{-1}
                       : static_cast<std::int64_t>(context.watermark));
        json.field("sealed_only", context.sealed_only);
        json.field("finished", context.finished);
        json.field("sealed_events", session.sealed_events());
        json.field("acked_seq", stream.acked_seq);
        json.field("accepted", counters.accepted);
        json.field("reordered", counters.reordered);
        json.field("duplicates_dropped", counters.duplicates_dropped);
        json.field("late_dropped", counters.late_dropped);
        json.field("num_nodes", static_cast<std::uint64_t>(session.num_nodes()));
        json.field("directed", session.directed());
        json.field("grid_size", static_cast<std::uint64_t>(session.grid().size()));
        json.field("metric", metric_name(session.metric()));
        json.end_object();
        return json.str();
    }

    void handle_list(const ConnectionPtr& conn) {
        StreamList list;
        {
            std::lock_guard lock(streams_mutex_);
            list.names.reserve(streams_by_name_.size());
            for (const auto& [name, stream] : streams_by_name_) list.names.push_back(name);
        }
        std::sort(list.names.begin(), list.names.end());
        send_frame(conn, MessageType::stream_list, encode_stream_list(list));
    }

    // --- persistence -------------------------------------------------------

    void handle_checkpoint(const ConnectionPtr& conn, bool then_stop) {
        if (options_.state_dir.empty() && !then_stop) {
            send_error(conn, ErrorCode::bad_request, "no state directory configured");
            return;
        }
        std::vector<StreamPtr> streams;
        {
            std::lock_guard lock(streams_mutex_);
            streams.reserve(streams_by_id_.size());
            for (const auto& [id, stream] : streams_by_id_) streams.push_back(stream);
        }
        // One persist task per strand; the last one to finish acks (and
        // stops, for shutdown).
        auto remaining = std::make_shared<std::atomic<std::size_t>>(streams.size());
        auto finish = [this, conn, then_stop] {
            send_frame(conn, MessageType::checkpoint_ack, {});
            if (then_stop) stop();
        };
        if (streams.empty()) {
            finish();
            return;
        }
        for (const StreamPtr& stream : streams) {
            enqueue(stream, conn, [this, conn, stream, remaining, finish] {
                if (!options_.state_dir.empty()) {
                    try {
                        persist(*stream);
                    } catch (const std::exception& e) {
                        send_error(conn, ErrorCode::internal, e.what());
                    }
                }
                if (remaining->fetch_sub(1) == 1) finish();
            });
        }
    }

    std::filesystem::path state_path(const std::string& name) const {
        return std::filesystem::path(options_.state_dir) / (name + ".natstream");
    }

    /// Strand-exclusive: serializes the session plus resume bookkeeping and
    /// durably replaces the state file (util/atomic_file: temp + fsync +
    /// rename + dirsync), so neither a crash mid-write nor power loss right
    /// after the save can corrupt or lose the previous snapshot.
    void persist(StreamState& stream) {
        wire::Writer out(kStateFormat);
        out.u32(0);  // reserved
        out.u64(stream.resume_token);
        out.u64(stream.acked_seq);
        out.u32(static_cast<std::uint32_t>(stream.name.size()));
        out.raw(stream.name.data(), stream.name.size());
        const std::vector<std::byte> snapshot = stream.session->serialize();
        out.u64(snapshot.size());
        out.raw(snapshot.data(), snapshot.size());
        atomic_write_file(state_path(stream.name).string(), wire::seal(out));
    }

    /// Exit path, after the workers joined (exclusive session access).
    void checkpoint_all_direct() {
        std::lock_guard lock(streams_mutex_);
        for (const auto& [id, stream] : streams_by_id_) {
            try {
                persist(*stream);
            } catch (const std::exception&) {
                // Exit-path persistence is best effort; the periodic
                // checkpoint frames report failures to the client.
            }
        }
    }

    void load_state_dir() {
        std::filesystem::create_directories(options_.state_dir);
        for (const auto& entry :
             std::filesystem::directory_iterator(options_.state_dir)) {
            if (!entry.is_regular_file()) continue;
            if (entry.path().extension() != ".natstream") continue;
            load_state_file(entry.path());
        }
    }

    void load_state_file(const std::filesystem::path& path) {
        const std::string context = path.string();
        const std::vector<std::byte> bytes = read_file(context);
        wire::Reader in = wire::unseal(bytes, kStateFormat, context, throw_io_error);
        if (in.u32() != 0) in.fail("nonzero reserved daemon state field");
        auto stream = std::make_shared<StreamState>();
        stream->resume_token = in.u64();
        stream->acked_seq = in.u64();
        const std::uint32_t name_length = in.u32();
        if (name_length > kMaxStreamName) in.fail("daemon state stream name too long");
        stream->name.assign(reinterpret_cast<const char*>(in.take(name_length)), name_length);
        if (!valid_stream_name(stream->name)) in.fail("daemon state stream name invalid");
        const std::uint64_t snapshot_bytes = in.u64();
        const std::byte* snapshot = in.take(static_cast<std::size_t>(snapshot_bytes));
        in.done();
        stream->session = std::make_unique<StreamSession>(StreamSession::restore(
            std::span<const std::byte>(snapshot,
                                       static_cast<std::size_t>(snapshot_bytes)),
            context));
        stream->session->set_num_threads(options_.engine_threads);
        add_stream(stream);
    }

    void close_fds() {
        if (epoll_fd_ >= 0) ::close(epoll_fd_), epoll_fd_ = -1;
        if (wake_fd_ >= 0) ::close(wake_fd_), wake_fd_ = -1;
        if (unix_fd_ >= 0) {
            ::close(unix_fd_), unix_fd_ = -1;
            ::unlink(options_.unix_path.c_str());
        }
        if (tcp_fd_ >= 0) ::close(tcp_fd_), tcp_fd_ = -1;
    }

    // --- state --------------------------------------------------------------

    ServerOptions options_;
    int epoll_fd_ = -1;
    int wake_fd_ = -1;
    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    std::uint16_t bound_port_ = 0;
    std::atomic<bool> stop_{false};
    std::thread::id io_thread_{};

    std::unordered_map<int, ConnectionPtr> connections_;  // IO thread only

    std::mutex streams_mutex_;
    std::unordered_map<std::string, StreamPtr> streams_by_name_;
    std::unordered_map<std::uint64_t, StreamPtr> streams_by_id_;
    std::uint64_t next_stream_id_ = 1;
    std::mt19937_64 token_rng_{std::random_device{}()};

    std::mutex strands_mutex_;
    std::condition_variable strands_cv_;
    std::deque<StreamPtr> ready_;
    bool workers_stop_ = false;
    std::vector<std::thread> workers_;
};

Server::Server(ServerOptions options) : impl_(std::make_unique<Impl>(std::move(options))) {}
Server::~Server() = default;

std::uint16_t Server::tcp_port() const noexcept { return impl_->tcp_port(); }
void Server::run() { impl_->run(); }
void Server::stop() { impl_->stop(); }

}  // namespace natscale::service

// util/fd_io: the EINTR/partial-transfer helpers every socket loop in the
// repo now routes through — including the regression the helpers exist for:
// a signal storm landing mid-transfer of a frame much larger than the
// socket buffer must neither corrupt nor truncate it.
#include "util/fd_io.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>
#include <vector>

#include "service/protocol.hpp"

namespace natscale {
namespace {

std::atomic<std::uint64_t> g_signals{0};

extern "C" void count_signal(int) { g_signals.fetch_add(1); }

/// SIGALRM every millisecond, installed WITHOUT SA_RESTART so every slow
/// syscall in this process actually fails with EINTR — the hostile
/// environment (profilers, timers, signal-driven runtimes) the helpers are
/// hardened against.
class SignalStorm {
public:
    SignalStorm() {
        g_signals.store(0);
        struct sigaction action {};
        action.sa_handler = count_signal;
        sigemptyset(&action.sa_mask);
        action.sa_flags = 0;  // deliberately no SA_RESTART
        sigaction(SIGALRM, &action, &previous_);
        itimerval timer{};
        timer.it_interval.tv_usec = 1'000;
        timer.it_value.tv_usec = 1'000;
        setitimer(ITIMER_REAL, &timer, nullptr);
    }

    ~SignalStorm() {
        itimerval off{};
        setitimer(ITIMER_REAL, &off, nullptr);
        sigaction(SIGALRM, &previous_, nullptr);
    }

private:
    struct sigaction previous_ {};
};

/// Blocking socketpair with a deliberately tiny send buffer, so a large
/// transfer needs many partial sends and each one can be interrupted.
void tiny_socketpair(int fds[2]) {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const int small = 4 * 1024;
    ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
    ::setsockopt(fds[1], SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
}

std::vector<std::byte> patterned(std::size_t size) {
    std::vector<std::byte> bytes(size);
    for (std::size_t i = 0; i < size; ++i) {
        bytes[i] = static_cast<std::byte>((i * 131) ^ (i >> 8));
    }
    return bytes;
}

TEST(NetIo, SendAllSurvivesSignalStormOnLargeTransfer) {
    int fds[2];
    tiny_socketpair(fds);
    const std::vector<std::byte> payload = patterned(4 * 1024 * 1024);

    std::vector<std::byte> received(payload.size());
    std::thread reader([&] {
        // A deliberately slow drain: keeps the writer blocked on a full
        // buffer so the interrupts land mid-send, not between sends.
        std::size_t got = 0;
        while (got < received.size()) {
            const ssize_t n =
                fdio::recv_retry(fds[1], received.data() + got, received.size() - got);
            ASSERT_GT(n, 0);
            got += static_cast<std::size_t>(n);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    {
        SignalStorm storm;
        ASSERT_TRUE(fdio::send_all(fds[0], payload.data(), payload.size()));
        reader.join();
        // The storm must actually have interrupted us, or this test proves
        // nothing.  ~1 kHz over a multi-MB transfer through a 4 KiB buffer
        // yields hundreds of signals; demand at least a handful.
        EXPECT_GE(g_signals.load(), 5u);
    }
    EXPECT_EQ(received, payload);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(NetIo, ServiceFrameRoundTripsUnderSignals) {
    // The satellite regression: one NATSVC01 frame bigger than the socket
    // buffer, written and read while SIGALRMs rain down, arrives intact.
    int fds[2];
    tiny_socketpair(fds);
    const std::vector<std::byte> payload = patterned(2 * 1024 * 1024);
    std::vector<std::byte> wire;
    service::append_frame(wire, service::MessageType::ingest, payload);

    service::Frame frame;
    bool got_frame = false;
    std::thread reader([&] {
        service::FrameReader frames;
        std::byte chunk[8 * 1024];
        while (!got_frame) {
            const ssize_t n = fdio::recv_retry(fds[1], chunk, sizeof(chunk));
            ASSERT_GT(n, 0);
            frames.feed(std::span<const std::byte>(chunk, static_cast<std::size_t>(n)));
            got_frame = frames.next(frame);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });

    {
        SignalStorm storm;
        ASSERT_TRUE(fdio::send_all(fds[0], wire.data(), wire.size()));
        reader.join();
        EXPECT_GE(g_signals.load(), 5u);
    }
    ASSERT_TRUE(got_frame);
    EXPECT_EQ(frame.type, service::MessageType::ingest);
    EXPECT_EQ(frame.payload, payload);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(NetIo, WriteAllSurvivesSignalsOnPipe) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::vector<std::byte> payload = patterned(1 * 1024 * 1024);

    std::vector<std::byte> received(payload.size());
    std::thread reader([&] {
        std::size_t got = 0;
        while (got < received.size()) {
            // The reader retries EINTR itself: only write_all is under test.
            const ssize_t n = ::read(fds[0], received.data() + got, received.size() - got);
            if (n < 0 && errno == EINTR) continue;
            ASSERT_GT(n, 0);
            got += static_cast<std::size_t>(n);
        }
    });

    {
        SignalStorm storm;
        ASSERT_TRUE(fdio::write_all(fds[1], payload.data(), payload.size()));
        reader.join();
    }
    EXPECT_EQ(received, payload);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(NetIo, RetryVariantsPassEagainThrough) {
    // The nonblocking event loops (epoll daemon, dist coordinator) rely on
    // EAGAIN reaching them: recv_retry must retry EINTR only.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    std::byte chunk[64];
    const ssize_t n = fdio::recv_retry(fds[0], chunk, sizeof(chunk));
    EXPECT_EQ(n, -1);
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(NetIo, SendAllReportsDeadPeer) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[1]);
    const std::vector<std::byte> payload = patterned(1024);
    // MSG_NOSIGNAL: an EPIPE return, not a SIGPIPE death.
    EXPECT_FALSE(fdio::send_all(fds[0], payload.data(), payload.size()));
    EXPECT_EQ(errno, EPIPE);
    ::close(fds[0]);
}

}  // namespace
}  // namespace natscale

#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "util/fd_io.hpp"

namespace natscale {

namespace {

/// The save ordinal from which NATSCALE_FAULT tears writes: 1 for
/// "torn_write", N for "torn_write:nth=N" (N >= 1).  Unset, empty or any
/// other value is 0 = no fault, so a stray variable never breaks a save.
std::uint64_t torn_write_nth_from_env() {
    const char* env = std::getenv("NATSCALE_FAULT");
    if (env == nullptr) return 0;
    const std::string_view text(env);
    if (text == "torn_write") return 1;
    constexpr std::string_view kPrefix = "torn_write:nth=";
    if (!text.starts_with(kPrefix)) return 0;
    const char* first = text.data() + kPrefix.size();
    const char* last = text.data() + text.size();
    std::uint64_t nth = 0;
    const auto [end, error] = std::from_chars(first, last, nth);
    return error == std::errc{} && end == last ? nth : 0;
}

[[noreturn]] void throw_errno(const std::string& what) {
    throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// fsync an already-open descriptor; EINTR retried (Linux fsync restarts
/// cleanly).
void fsync_fd(int fd, const std::string& what) {
    for (;;) {
        if (::fsync(fd) == 0) return;
        if (errno != EINTR) throw_errno("fsync " + what);
    }
}

/// Opens the directory holding `path` and fsyncs it, making the rename's
/// directory entry itself durable.
void fsync_parent_dir(const std::filesystem::path& path) {
    std::filesystem::path dir = path.parent_path();
    if (dir.empty()) dir = ".";
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) throw_errno("open directory " + dir.string());
    try {
        fsync_fd(fd, dir.string());
    } catch (...) {
        ::close(fd);
        throw;
    }
    ::close(fd);
}

}  // namespace

void atomic_write_file(const std::string& path, std::span<const std::byte> bytes) {
    // pid + process-local counter: concurrent writers (two daemon strands,
    // two processes sharing a state dir) never collide on the temp name.
    static std::atomic<unsigned> counter{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                            std::to_string(counter.fetch_add(1));

    // Crash semantics: a process that dies at its nth save never saves
    // again, so while the fault is armed every call from the nth on is
    // torn (>=, not ==) — and clearing NATSCALE_FAULT is the "restart".
    static std::atomic<std::uint64_t> fault_ordinal{0};
    const std::uint64_t torn_nth = torn_write_nth_from_env();
    const bool torn = torn_nth != 0 && fault_ordinal.fetch_add(1) + 1 >= torn_nth;

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) throw_errno("open " + tmp);
    const std::size_t count = torn ? bytes.size() / 2 : bytes.size();
    if (!fdio::write_all(fd, bytes.data(), count)) {
        const int saved = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        errno = saved;
        throw_errno("write " + tmp);
    }
    if (torn) {
        // Simulated crash between temp-write and rename: leave the torn
        // temp file behind (as a real crash would) and never touch `path`.
        ::close(fd);
        return;
    }
    try {
        fsync_fd(fd, tmp);
    } catch (...) {
        ::close(fd);
        ::unlink(tmp.c_str());
        throw;
    }
    if (::close(fd) != 0) {
        const int saved = errno;
        ::unlink(tmp.c_str());
        errno = saved;
        throw_errno("close " + tmp);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved = errno;
        ::unlink(tmp.c_str());
        errno = saved;
        throw_errno("rename " + tmp + " -> " + path);
    }
    fsync_parent_dir(std::filesystem::path(path));
}

std::vector<std::byte> read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("cannot open '" + path + "'");
    std::vector<std::byte> bytes;
    char chunk[64 * 1024];
    while (is.read(chunk, sizeof(chunk)) || is.gcount() > 0) {
        const auto* data = reinterpret_cast<const std::byte*>(chunk);
        bytes.insert(bytes.end(), data, data + is.gcount());
    }
    if (is.bad()) throw std::runtime_error("cannot read '" + path + "'");
    return bytes;
}

}  // namespace natscale

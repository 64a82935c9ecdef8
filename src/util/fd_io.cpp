#include "util/fd_io.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace natscale::fdio {

ssize_t send_retry(int fd, const void* data, std::size_t size) noexcept {
    for (;;) {
        const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
        if (n >= 0 || errno != EINTR) return n;
    }
}

ssize_t recv_retry(int fd, void* buffer, std::size_t capacity) noexcept {
    for (;;) {
        const ssize_t n = ::recv(fd, buffer, capacity, 0);
        if (n >= 0 || errno != EINTR) return n;
    }
}

bool send_all(int fd, const void* data, std::size_t size) noexcept {
    const char* at = static_cast<const char*>(data);
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n = send_retry(fd, at + sent, size - sent);
        if (n < 0) return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool write_all(int fd, const void* data, std::size_t size) noexcept {
    const char* at = static_cast<const char*>(data);
    std::size_t written = 0;
    while (written < size) {
        for (;;) {
            const ssize_t n = ::write(fd, at + written, size - written);
            if (n >= 0) {
                written += static_cast<std::size_t>(n);
                break;
            }
            if (errno != EINTR) return false;
        }
    }
    return true;
}

}  // namespace natscale::fdio

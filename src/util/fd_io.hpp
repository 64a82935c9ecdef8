// Retry-hardened file-descriptor I/O: the one place the EINTR and
// partial-transfer loops of every socket and file path live.
//
// POSIX read()/write()/send()/recv() may transfer fewer bytes than asked
// and may fail with EINTR when a signal lands mid-call; every call site
// that open-codes the retry loop is a latent bug (a missed EINTR under a
// SIGALRM-driven profiler, a short write on a full socket buffer).  The
// service layer (blocking client, epoll daemon) and the durable-save path
// (util/atomic_file) route through these helpers instead.
//
// Two families:
//   *_all    — blocking fds: loop until every byte moved (or a real error).
//   *_retry  — one transfer attempt with EINTR retried; EAGAIN/EWOULDBLOCK
//              pass through, so non-blocking event loops keep their
//              semantics while sharing the signal hardening.
//
// All helpers leave errno set on failure and never throw: the callers own
// their error vocabulary (protocol_error, io_error, plain errno strings).
#pragma once

#include <sys/types.h>

#include <cstddef>

namespace natscale::fdio {

/// Blocking send() of the whole buffer (MSG_NOSIGNAL: a dead peer yields
/// EPIPE, never SIGPIPE).  Retries EINTR and partial sends; false on any
/// other error, with errno set.
bool send_all(int fd, const void* data, std::size_t size) noexcept;

/// Blocking write() of the whole buffer (regular files, pipes).  Retries
/// EINTR and partial writes; false on any other error, with errno set.
bool write_all(int fd, const void* data, std::size_t size) noexcept;

/// One recv() with EINTR retried.  Returns the byte count (0 = orderly
/// peer shutdown) or -1 with errno set (EAGAIN/EWOULDBLOCK included, for
/// non-blocking fds).
ssize_t recv_retry(int fd, void* buffer, std::size_t capacity) noexcept;

/// One send() (MSG_NOSIGNAL) with EINTR retried: the non-blocking flush
/// loops' primitive.  Returns the byte count or -1 with errno set
/// (EAGAIN/EWOULDBLOCK included).
ssize_t send_retry(int fd, const void* data, std::size_t size) noexcept;

}  // namespace natscale::fdio

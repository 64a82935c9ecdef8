// Whole-file binary I/O: durable atomic replacement (write-temp, fsync,
// rename, fsync-dir) and the matching whole-file read.
//
// A bare `ofstream << rename` is atomic against concurrent *readers* but
// not against power loss: the rename can reach the directory before the
// data reaches the platter, leaving a correctly-named file full of zeros
// (or half a checkpoint) after a crash.  The durable sequence is
//
//   1. write  <path>.tmp.<pid>
//   2. fsync  the temp file          (data + inode on stable storage)
//   3. rename tmp -> path            (atomic visibility switch)
//   4. fsync  the containing dir     (the new directory entry itself)
//
// so at every instant `path` is either the complete old file or the
// complete new one — torn snapshots are impossible, crash or no crash.
// This pair is the single definition used by the online-engine checkpoints
// (online/checkpoint) and the daemon's --state-dir persistence
// (service/server).
//
// Fault hook: while NATSCALE_FAULT=torn_write[:nth=N] is set, every call
// from the process's Nth one on writes only half the temp file and returns
// without renaming — exactly the observable state of a crash between
// steps 1 and 3 (a crashed process never saves again, hence every call,
// not just the Nth; clearing the variable is the restart).  Any other
// value of the variable is ignored.  Tests use it to prove the target file
// survives an interrupted save (tests/test_atomic_file.cpp).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace natscale {

/// Durably replaces `path` with `bytes` via the temp+fsync+rename+dirsync
/// sequence above.  Throws std::runtime_error (with errno detail) on any
/// failure; the temp file is removed on the error paths that leave one.
void atomic_write_file(const std::string& path, std::span<const std::byte> bytes);

/// The whole content of `path`.  Throws std::runtime_error when the file
/// cannot be opened or read.
std::vector<std::byte> read_file(const std::string& path);

}  // namespace natscale

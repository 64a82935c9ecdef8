// Shared test fixtures: scratch files that clean up after themselves, and
// the sanitizer / RSS-measurement guards the memory-bound tests need.
// Deduplicates the helpers that used to be copy-pasted per test file.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#ifndef _WIN32
#include <unistd.h>
#endif

// NATSCALE_SANITIZED: defined when AddressSanitizer or ThreadSanitizer
// instruments this build (gcc and clang spellings alike).  Peak-RSS bounds
// and per-op timing budgets are meaningless there (shadow memory,
// quarantines and instrumented accesses dominate), so those assertions are
// skipped — the functional parts of the tests still run and give the
// sanitizer its coverage.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NATSCALE_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define NATSCALE_SANITIZED 1
#endif
#endif

namespace natscale::testing {

/// Absolute path for a scratch file in the system temp directory.  The
/// name is made unique per process so parallel ctest jobs never collide.
inline std::string temp_path(const std::string& name) {
#ifdef _WIN32
    const unsigned long long pid = 0;
#else
    const auto pid = static_cast<unsigned long long>(::getpid());
#endif
    // Keep the extension: "foo.txt" -> "foo_<pid>.txt".
    const auto dot = name.find_last_of('.');
    const std::string stem = dot == std::string::npos ? name : name.substr(0, dot);
    const std::string ext = dot == std::string::npos ? "" : name.substr(dot);
    return (std::filesystem::temp_directory_path() / (stem + "_" + std::to_string(pid) + ext))
        .string();
}

/// Writes `content` verbatim (binary mode: CRLF and '\0' survive) to a
/// scratch file and returns its path.
inline std::string write_temp(const std::string& name, const std::string& content) {
    const std::string path = temp_path(name);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << content;
    return path;
}

/// RAII deleter: removes the file (if it exists) on scope exit, so a
/// failing assertion never leaks scratch files into later runs.
class TempFileGuard {
public:
    explicit TempFileGuard(std::string path) : path_(std::move(path)) {}
    ~TempFileGuard() {
        if (path_.empty()) return;
        std::error_code ec;
        std::filesystem::remove(path_, ec);
    }
    TempFileGuard(TempFileGuard&& other) noexcept : path_(std::move(other.path_)) {
        other.path_.clear();
    }
    TempFileGuard& operator=(TempFileGuard&&) = delete;
    TempFileGuard(const TempFileGuard&) = delete;
    TempFileGuard& operator=(const TempFileGuard&) = delete;

    const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
};

}  // namespace natscale::testing

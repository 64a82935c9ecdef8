// Structured tracing: RAII spans emitted in Chrome trace-event format.
//
// A Span brackets a unit of work (one Δ scan, one refinement round, one
// daemon request); spans carry a process-unique id, the id of the
// enclosing span on the same thread (for bodies run by
// ThreadPool::parallel_for: the span open on the dispatching thread), and
// up to kMaxAttrs typed attributes (Δ, backend, stream name, ...).
// Completed spans go to the installed TraceSink, which appends them as
// Chrome trace-event JSON (one event per line, loadable in chrome://tracing
// and Perfetto).
//
// Dormant by construction: all instrumentation is compiled in, but with
// no sink installed a Span constructor is one relaxed atomic load and a
// branch — attributes and the destructor short-circuit the same way, so
// instrumented code is bit-identical and within noise of uninstrumented
// code (tests/test_obs_perf.cpp guards this).  Installing a sink
// mid-flight only affects spans constructed afterwards: each span pins
// the sink it was born under.
//
//     {
//         obs::Span span("sweep.delta");
//         span.attr("delta", delta);
//         ...work...
//     }  // emitted on scope exit
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

namespace natscale::obs {

inline constexpr std::size_t kMaxAttrs = 8;

/// One typed span attribute.  Keys must be string literals (the
/// pointer is kept, not copied); string values are truncated to fit the
/// inline buffer.
struct Attr {
    enum class Kind : std::uint8_t { none, i64, u64, f64, text };
    const char* key = nullptr;
    Kind kind = Kind::none;
    std::int64_t i = 0;
    std::uint64_t u = 0;
    double d = 0.0;
    char text[48] = {0};

    void set_text(std::string_view value) noexcept;
};

/// A finished span, as handed to TraceSink::emit.
struct SpanRecord {
    const char* name = nullptr;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t start_ns = 0;   // monotonic, since sink creation
    std::uint64_t duration_ns = 0;
    std::size_t thread = 0;
    std::size_t num_attrs = 0;
    std::array<Attr, kMaxAttrs> attrs{};
};

/// Appends trace events to a file as they complete.  Thread-safe; writes
/// are serialized under a mutex (tracing is opt-in, dormant paths never get
/// here).  The file is a single JSON array — "[\n" at open, one event
/// object per line, "]" at close() — so `json.load` accepts the whole
/// file and Perfetto accepts even an unterminated one after a crash.
class TraceSink {
public:
    /// Opens `path` for writing (truncates).  Throws std::runtime_error
    /// when the file cannot be opened.
    explicit TraceSink(const std::string& path);
    ~TraceSink();
    TraceSink(const TraceSink&) = delete;
    TraceSink& operator=(const TraceSink&) = delete;

    /// Terminates the JSON array and closes the file.  Idempotent;
    /// called by the destructor when not called explicitly.
    void close();

    void emit(const SpanRecord& record);

    /// Monotonic nanoseconds since an epoch fixed at process start.
    static std::uint64_t now_ns() noexcept;

private:
    std::mutex mutex_;
    std::FILE* file_ = nullptr;
    bool first_event_ = true;
};

/// Installs `sink` as the process-wide trace sink (nullptr uninstalls).
/// The caller keeps ownership and must keep the sink alive until after
/// uninstalling it and draining in-flight spans (in practice: install at
/// startup, uninstall before destruction at shutdown).
void install_trace_sink(TraceSink* sink) noexcept;

/// The installed sink, or nullptr when tracing is dormant.
TraceSink* trace_sink() noexcept;

inline bool tracing_enabled() noexcept { return trace_sink() != nullptr; }

/// Id of the innermost traced span open on this thread (0 = none).
std::uint64_t current_span_id() noexcept;

/// Makes `parent` the innermost span of this thread for the scope's
/// lifetime, so spans opened here nest under a span opened on another
/// thread.  ThreadPool::parallel_for uses it to carry the caller's span
/// into the bodies its pool threads run.
class ParentSpanScope {
public:
    explicit ParentSpanScope(std::uint64_t parent) noexcept;
    ~ParentSpanScope() noexcept;
    ParentSpanScope(const ParentSpanScope&) = delete;
    ParentSpanScope& operator=(const ParentSpanScope&) = delete;

private:
    std::uint64_t saved_;
};

class Span {
public:
    /// `name` must be a string literal (kept by pointer).
    explicit Span(const char* name) noexcept;
    ~Span() noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void attr(const char* key, std::int64_t value) noexcept;
    void attr(const char* key, std::uint64_t value) noexcept;
    void attr(const char* key, int value) noexcept {
        attr(key, static_cast<std::int64_t>(value));
    }
    void attr(const char* key, double value) noexcept;
    void attr(const char* key, std::string_view value) noexcept;

    bool active() const noexcept { return sink_ != nullptr; }
    std::uint64_t id() const noexcept { return record_.id; }

private:
    Attr* next_attr() noexcept;

    TraceSink* sink_ = nullptr;
    SpanRecord record_;
};

}  // namespace natscale::obs

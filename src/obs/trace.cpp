#include "obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cstring>
#include <stdexcept>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace natscale::obs {

namespace {

std::atomic<TraceSink*> g_sink{nullptr};
std::atomic<std::uint64_t> g_next_span_id{1};

/// Innermost active span id on this thread (0 = top level).  Dormant
/// spans never touch it, so an active span constructed under a dormant
/// one links to the nearest *traced* ancestor.
thread_local std::uint64_t t_current_span = 0;

std::uint64_t monotonic_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Fixed at first use so event timestamps start near zero.
std::uint64_t process_epoch_ns() noexcept {
    static const std::uint64_t epoch = monotonic_ns();
    return epoch;
}

void write_args(std::FILE* file, const SpanRecord& record) {
    if (record.num_attrs == 0) return;
    std::fputs(",\"args\":{", file);
    for (std::size_t i = 0; i < record.num_attrs; ++i) {
        const Attr& attr = record.attrs[i];
        if (i != 0) std::fputc(',', file);
        std::fprintf(file, "\"%s\":", attr.key);
        switch (attr.kind) {
            case Attr::Kind::i64:
                std::fprintf(file, "%" PRId64, attr.i);
                break;
            case Attr::Kind::u64:
                std::fprintf(file, "%" PRIu64, attr.u);
                break;
            case Attr::Kind::f64:
                std::fprintf(file, "%.17g", attr.d);
                break;
            case Attr::Kind::text:
                std::fprintf(file, "\"%s\"",
                             json_escape(std::string(attr.text)).c_str());
                break;
            case Attr::Kind::none:
                std::fputs("null", file);
                break;
        }
    }
    std::fputc('}', file);
}

}  // namespace

void Attr::set_text(std::string_view value) noexcept {
    const std::size_t n = value.size() < sizeof(text) - 1
                              ? value.size()
                              : sizeof(text) - 1;
    std::memcpy(text, value.data(), n);
    text[n] = '\0';
    kind = Kind::text;
}

std::uint64_t TraceSink::now_ns() noexcept {
    return monotonic_ns() - process_epoch_ns();
}

TraceSink::TraceSink(const std::string& path) {
    process_epoch_ns();  // pin the epoch before the first event
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
        throw std::runtime_error("cannot open trace file '" + path + "'");
    }
    std::fputs("[\n", file_);
}

TraceSink::~TraceSink() { close(); }

void TraceSink::close() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) return;
    std::fputs("\n]\n", file_);
    std::fclose(file_);
    file_ = nullptr;
}

void TraceSink::emit(const SpanRecord& record) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) return;
    if (!first_event_) std::fputs(",\n", file_);
    first_event_ = false;
    std::fprintf(file_,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"id\":%" PRIu64
                 ",\"parent\":%" PRIu64 ",\"pid\":%d,\"tid\":%zu",
                 record.name, static_cast<double>(record.start_ns) / 1e3,
                 static_cast<double>(record.duration_ns) / 1e3, record.id, record.parent,
                 static_cast<int>(::getpid()), record.thread);
    write_args(file_, record);
    std::fputc('}', file_);
}

void install_trace_sink(TraceSink* sink) noexcept {
    g_sink.store(sink, std::memory_order_release);
}

TraceSink* trace_sink() noexcept {
    return g_sink.load(std::memory_order_relaxed);
}

std::uint64_t current_span_id() noexcept { return t_current_span; }

ParentSpanScope::ParentSpanScope(std::uint64_t parent) noexcept
    : saved_(t_current_span) {
    t_current_span = parent;
}

ParentSpanScope::~ParentSpanScope() noexcept { t_current_span = saved_; }

Span::Span(const char* name) noexcept {
    sink_ = trace_sink();
    if (sink_ == nullptr) return;  // dormant: one load + branch
    record_.name = name;
    record_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    record_.parent = t_current_span;
    record_.thread = thread_ordinal();
    t_current_span = record_.id;
    record_.start_ns = TraceSink::now_ns();
}

Span::~Span() noexcept {
    if (sink_ == nullptr) return;
    const std::uint64_t end_ns = TraceSink::now_ns();
    record_.duration_ns =
        end_ns > record_.start_ns ? end_ns - record_.start_ns : 1;
    t_current_span = record_.parent;
    sink_->emit(record_);
}

Attr* Span::next_attr() noexcept {
    if (sink_ == nullptr || record_.num_attrs == kMaxAttrs) return nullptr;
    return &record_.attrs[record_.num_attrs++];
}

void Span::attr(const char* key, std::int64_t value) noexcept {
    if (Attr* slot = next_attr()) {
        slot->key = key;
        slot->kind = Attr::Kind::i64;
        slot->i = value;
    }
}

void Span::attr(const char* key, std::uint64_t value) noexcept {
    if (Attr* slot = next_attr()) {
        slot->key = key;
        slot->kind = Attr::Kind::u64;
        slot->u = value;
    }
}

void Span::attr(const char* key, double value) noexcept {
    if (Attr* slot = next_attr()) {
        slot->key = key;
        slot->kind = Attr::Kind::f64;
        slot->d = value;
    }
}

void Span::attr(const char* key, std::string_view value) noexcept {
    if (Attr* slot = next_attr()) {
        slot->key = key;
        slot->set_text(value);
    }
}

}  // namespace natscale::obs

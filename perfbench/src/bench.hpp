// Shared pieces of natbench: run options, the result of one run, an
// in-memory span tracer, and the small statistics the metrics need.
//
// natbench times calls into libnatscale's public functions from these
// files only.  It never installs an obs::TraceSink: that would switch on the
// library's internal spans, and the traced run would then measure a
// different program from the untraced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

inline double seconds_since(Clock::time_point from) {
    return seconds_between(from, Clock::now());
}

/// `full` is the measured workload; `tiny` is the self-test's seconds-long
/// version of the same stage mix.
enum class Size { full, tiny };

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 0;  // relabels the generated stream's nodes
    double seconds = 10.0;   // measurement window
    bool trace = false;
    Size size = Size::full;
    std::uint64_t gen_seed = 7;  // generator seed; known answers are recorded per value
    bool corrupt_expected = false;  // self-test: the recorded answer is made wrong
    std::string trace_out;          // Chrome-trace file of a traced run ("" = none)
};

/// SweepConfig::num_threads of every search: fixed rather than taken from
/// the machine, so runs on different hosts do the same work (the record
/// stamps it next to nproc).
inline constexpr std::size_t kSearchThreads = 4;

/// Metric name -> value; units live in the catalogue (main.cpp).
using Metrics = std::map<std::string, double>;

/// Median and linear-interpolation quantile (q in [0, 1]) of a sample.
/// Both return 0 on an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Everything one run reports.  `attempted` / `failed` count operations (one
/// search, or one daemon session); a wrong answer, an error frame or an
/// exception fails its operation.
struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    Metrics metrics;
    std::map<std::string, std::string> facts;  // workload description for the record

    /// Sets each metric of `per_op` (one entry per operation) to its median
    /// over the operations.
    void set_medians(const std::vector<Metrics>& per_op) {
        std::map<std::string, std::vector<double>> samples;
        for (const Metrics& op : per_op) {
            for (const auto& [name, value] : op) samples[name].push_back(value);
        }
        for (auto& [name, values] : samples) metrics[name] = median(std::move(values));
    }

    /// Counts one operation; `failures` lists why it failed (empty = passed).
    void count_op(const std::vector<std::string>& failures) {
        ++attempted;
        if (failures.empty()) return;
        ++failed;
        errors.insert(errors.end(), failures.begin(), failures.end());
    }
};

/// "1.25,1.31,...": per-operation values, in run order, for the record.
std::string join(const std::vector<double>& values);

/// In-memory span recorder.  Spans are kept until write_chrome_trace(), so
/// recording costs one clock read and one locked push per span.
class Tracer {
public:
    using Id = std::uint64_t;  // 0 = no parent

    struct Span {
        std::string name;
        Id id = 0;
        Id parent = 0;
        std::uint32_t thread = 0;
        Clock::time_point start;
        Clock::time_point end;
    };

    Id begin(std::string_view name, Id parent);
    void end(Id id);

    /// Per span name, the summed self time in seconds: each span's duration
    /// minus the part of it that its children cover.
    std::map<std::string, double> self_seconds_by_name() const;

    /// Writes every span as a Chrome-trace "X" event (loadable in Perfetto),
    /// with its parent and self time in `args`.  Throws on IO failure.
    void write_chrome_trace(const std::string& path) const;

private:
    std::vector<double> self_seconds() const;

    mutable std::mutex mutex_;
    std::vector<Span> spans_;  // index = id - 1
    Clock::time_point origin_ = Clock::now();
};

/// RAII span; a null tracer records nothing but still measures, so the
/// caller can read the elapsed time either way.
class Scope {
public:
    Scope(Tracer* tracer, std::string_view name, Tracer::Id parent = 0)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : 0),
          start_(Clock::now()) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    Tracer::Id id() const noexcept { return id_; }

    /// Ends the span (once) and returns its duration in seconds.
    double close() {
        if (!closed_) {
            seconds_ = seconds_since(start_);
            if (tracer_ != nullptr) tracer_->end(id_);
            closed_ = true;
        }
        return seconds_;
    }

private:
    Tracer* tracer_;
    Tracer::Id id_;
    Clock::time_point start_;
    double seconds_ = 0.0;
    bool closed_ = false;
};

/// 64-bit FNV-1a over raw bytes, chained through `hash`.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

}  // namespace perfbench

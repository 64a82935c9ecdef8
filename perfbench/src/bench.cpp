#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "util/json.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double at = q * static_cast<double>(values.size() - 1);
    const auto below = static_cast<std::size_t>(at);
    if (below + 1 >= values.size()) return values.back();
    const double frac = at - static_cast<double>(below);
    return values[below] + frac * (values[below + 1] - values[below]);
}

std::string join(const std::vector<double>& values) {
    std::string out;
    for (double value : values) {
        if (!out.empty()) out += ',';
        out += std::to_string(value);
    }
    return out;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

namespace {

std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next++;
    return index;
}

}  // namespace

Tracer::Id Tracer::begin(std::string_view name, Id parent) {
    Span span;
    span.name = std::string(name);
    span.parent = parent;
    span.thread = thread_index();
    span.start = Clock::now();
    std::lock_guard lock(mutex_);
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void Tracer::end(Id id) {
    const Clock::time_point now = Clock::now();
    std::lock_guard lock(mutex_);
    spans_.at(id - 1).end = now;
}

std::vector<double> Tracer::self_seconds() const {
    std::lock_guard lock(mutex_);
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>> children(
        spans_.size());
    for (const Span& span : spans_) {
        if (span.parent != 0) children[span.parent - 1].emplace_back(span.start, span.end);
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        auto& covered = children[i];
        // Children of one span may run concurrently on pool threads: subtract
        // the union of their intervals, clipped to the span.
        std::sort(covered.begin(), covered.end());
        double child_s = 0.0;
        Clock::time_point reach = span.start;
        for (auto [from, to] : covered) {
            from = std::max(from, reach);
            to = std::min(to, span.end);
            if (to <= from) continue;
            child_s += seconds_between(from, to);
            reach = to;
        }
        self[i] = seconds_between(span.start, span.end) - child_s;
    }
    return self;
}

std::map<std::string, double> Tracer::self_seconds_by_name() const {
    const std::vector<double> self = self_seconds();
    std::lock_guard lock(mutex_);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
    const std::vector<double> self = self_seconds();
    natscale::JsonWriter json;
    json.begin_object();
    json.begin_array("traceEvents");
    {
        std::lock_guard lock(mutex_);
        const auto micros = [this](Clock::time_point at) {
            return std::chrono::duration<double, std::micro>(at - origin_).count();
        };
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& span = spans_[i];
            json.begin_object();
            json.field("name", span.name);
            json.field("ph", "X");
            json.field("pid", std::int64_t{1});
            json.field("tid", static_cast<std::int64_t>(span.thread));
            json.field("ts", micros(span.start));
            json.field("dur", micros(span.end) - micros(span.start));
            json.begin_object("args");
            json.field("id", span.id);
            json.field("parent", span.parent);
            json.field("self_us", self[i] * 1e6);
            json.end_object();
            json.end_object();
        }
    }
    json.end_array();
    json.end_object();
    std::ofstream out(path);
    out << json.str() << '\n';
    if (!out) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench

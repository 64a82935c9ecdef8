// Reads back a trace file written by obs::TraceSink, so tests check the
// spans where every consumer finds them: in the file.  The sink writes one
// complete-span event object per line between the array's "[" and "]",
// which is all this reader relies on.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace natscale::testing {

/// One span of a trace file.
struct TraceEvent {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t thread = 0;  // "tid": obs::thread_ordinal() of the emitting thread
    /// The "args" members in file order: key and value text (numbers as
    /// written, strings without their quotes).
    std::vector<std::pair<std::string, std::string>> args;
};

namespace detail {

/// Text of the JSON string starting at line[at] == '"'; `at` ends past
/// its closing quote.  Escapes are kept as written.
inline std::string read_json_string(const std::string& line, std::size_t& at) {
    std::string out;
    for (++at; at < line.size() && line[at] != '"'; ++at) {
        if (line[at] == '\\' && at + 1 < line.size()) out += line[at++];
        out += line[at];
    }
    ++at;
    return out;
}

inline std::uint64_t number_after(const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    if (at == std::string::npos) return 0;
    return std::strtoull(line.c_str() + at + key.size() + 3, nullptr, 10);
}

}  // namespace detail

/// The events of the trace file at `path`, in the order they were emitted.
inline std::vector<TraceEvent> read_trace(const std::string& path) {
    std::vector<TraceEvent> events;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t begin = line.find("{\"name\":");
        if (begin == std::string::npos) continue;
        TraceEvent event;
        std::size_t at = begin + 8;
        event.name = detail::read_json_string(line, at);
        event.id = detail::number_after(line, "id");
        event.parent = detail::number_after(line, "parent");
        event.thread = detail::number_after(line, "tid");
        const std::size_t args = line.find("\"args\":{");
        if (args != std::string::npos) {
            at = args + 8;
            while (at < line.size() && line[at] == '"') {
                std::string key = detail::read_json_string(line, at);
                ++at;  // ':'
                std::string value;
                if (line[at] == '"') {
                    value = detail::read_json_string(line, at);
                } else {
                    while (at < line.size() && line[at] != ',' && line[at] != '}') {
                        value += line[at++];
                    }
                }
                event.args.emplace_back(std::move(key), std::move(value));
                if (at < line.size() && line[at] == ',') ++at;
            }
        }
        events.push_back(std::move(event));
    }
    return events;
}

}  // namespace natscale::testing

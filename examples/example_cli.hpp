// Shared command-line parsing for the example programs.
//
// Every example that exposes the engine knobs (--threads / --metric /
// numeric options generally) parses them through these helpers, so the
// hardened behavior — junk, negatives and trailing garbage exit 2 with a
// message naming BOTH the offending value and the flag it was passed to —
// is uniform across find_time_scale, epidemic_window, dataset_comparison
// and the natscaled client.
//
// Helpers take the flag spelling itself (e.g. "--points="), which both
// derives the value (no hand-counted prefix lengths) and lets the error
// message name the flag (tests/test_example_cli.cpp locks this in).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>
#include <utility>

#include "core/delta_grid.hpp"
#include "stats/uniformity.hpp"
#include "util/thread_pool.hpp"

namespace natscale::examples {

/// The value part of `--flag=value`.  Preconditions: arg starts with flag.
inline std::string option_value(const std::string& arg, const std::string& flag) {
    return arg.substr(flag.size());
}

/// Exits 2 naming the value AND the flag it was passed to ("--points=", the
/// parse site's spelling, is displayed without the trailing '=').
[[noreturn]] inline void invalid_value(const std::string& flag, const std::string& value,
                                       const char* expected) {
    std::string name = flag;
    if (!name.empty() && name.back() == '=') name.pop_back();
    std::fprintf(stderr, "invalid value '%s' for option '%s' (expected %s)\n",
                 value.c_str(), name.c_str(), expected);
    std::exit(2);
}

/// Numeric value of an `--option=N` argument: decimal digits only, all of
/// the value.  Exits with a message on anything else — a sign, a space,
/// trailing garbage, or a count beyond std::size_t.
inline std::size_t parse_count(const std::string& arg, const std::string& flag) {
    const std::string value = option_value(arg, flag);
    std::size_t parsed = 0;
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, parsed);
    if (error != std::errc{} || stop != end) {
        invalid_value(flag, value, "a non-negative integer");
    }
    return parsed;
}

/// A count as parse_count reads it, within [min, max]; exits 2 naming the
/// flag and the bound it broke otherwise.  Callers that narrow the result
/// (to std::uint32_t, to Time) pass the target type's maximum, so no value
/// wraps on the way.
inline std::size_t parse_bounded_count(const std::string& arg, const std::string& flag,
                                       std::size_t min, std::size_t max) {
    const std::size_t count = parse_count(arg, flag);
    if (count < min) {
        invalid_value(flag, option_value(arg, flag), ("at least " + std::to_string(min)).c_str());
    }
    if (count > max) {
        invalid_value(flag, option_value(arg, flag), ("at most " + std::to_string(max)).c_str());
    }
    return count;
}

/// Thread count of `--threads=` / `--workers=` / `--engine-threads=`: at
/// most ThreadPool::kMaxThreads.  A larger one exits 2 naming the flag,
/// before any thread starts.
inline std::size_t parse_thread_count(const std::string& arg, const std::string& flag) {
    return parse_bounded_count(arg, flag, 0, ThreadPool::kMaxThreads);
}

/// `--points=` of a geometric Δ grid: a count of at least 2, since the grid
/// spans two ends, and at most kMaxGridPoints (core/delta_grid.hpp); exits 2
/// naming the flag otherwise.
inline std::size_t parse_grid_points(const std::string& arg, const std::string& flag) {
    return parse_bounded_count(arg, flag, 2, kMaxGridPoints);
}

/// `--metric=mk|stddev|shannon|cre`; exits 2 on anything else.
inline UniformityMetric parse_metric(const std::string& arg, const std::string& flag) {
    const std::string value = option_value(arg, flag);
    if (value == "mk") return UniformityMetric::mk_proximity;
    if (value == "stddev") return UniformityMetric::std_deviation;
    if (value == "shannon") return UniformityMetric::shannon_entropy;
    if (value == "cre") return UniformityMetric::cre;
    invalid_value(flag, value, "mk|stddev|shannon|cre");
}

/// Floating-point value of an `--option=X` argument, read whole by
/// std::from_chars in general format: no leading space, '+' or hex prefix.
/// Exits 2 naming the flag on junk and trailing garbage, and on values that
/// are not finite (inf, nan, out of range).
inline double parse_double(const std::string& arg, const std::string& flag) {
    const std::string value = option_value(arg, flag);
    double parsed = 0.0;
    const char* end = value.data() + value.size();
    const auto [stop, error] = std::from_chars(value.data(), end, parsed);
    if (stop != end || (error != std::errc{} && error != std::errc::result_out_of_range)) {
        invalid_value(flag, value, "a number");
    }
    if (error == std::errc::result_out_of_range || !std::isfinite(parsed)) {
        invalid_value(flag, value, "a finite number");
    }
    return parsed;
}

/// Splits a repeated `--param=key=value` option into (key, value); exits 2
/// when the '=' between key and value is missing or the key is empty.  The
/// VALUE is validated later by the generator registry, whose errors name the
/// param ("invalid value 'x' for param 'rate' (expected a number)").
inline std::pair<std::string, std::string> parse_key_value(const std::string& arg,
                                                           const std::string& flag) {
    const std::string value = option_value(arg, flag);
    const std::size_t eq = value.find('=');
    if (eq == std::string::npos || eq == 0) {
        invalid_value(flag, value, "key=value");
    }
    return {value.substr(0, eq), value.substr(eq + 1)};
}

/// `--delimiter=` value: a single character, or one of the spelled-out
/// names tab|space|comma (a literal tab is awkward to pass in a shell).
inline char parse_delimiter(const std::string& arg, const std::string& flag) {
    const std::string value = option_value(arg, flag);
    if (value == "tab") return '\t';
    if (value == "space") return ' ';
    if (value == "comma") return ',';
    if (value.size() == 1) return value[0];
    invalid_value(flag, value, "a single character or tab|space|comma");
}

/// `--format=` / `--to=` values; `automatic` sniffs the file's magic bytes.
enum class FormatChoice { automatic, text, natbin };

inline FormatChoice parse_format(const std::string& arg, const std::string& flag,
                                 bool allow_automatic) {
    const std::string value = option_value(arg, flag);
    if (value == "auto" && allow_automatic) return FormatChoice::automatic;
    if (value == "text") return FormatChoice::text;
    if (value == "natbin") return FormatChoice::natbin;
    invalid_value(flag, value,
                  allow_automatic ? "auto|text|natbin" : "text|natbin");
}

}  // namespace natscale::examples

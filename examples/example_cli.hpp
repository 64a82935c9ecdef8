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

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "stats/uniformity.hpp"

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

/// Numeric value of an `--option=N` argument; exits with a message on junk
/// (including negatives, which std::stoul would silently wrap, and trailing
/// garbage, which it would silently drop).
inline std::size_t parse_count(const std::string& arg, const std::string& flag) {
    const std::string value = option_value(arg, flag);
    try {
        std::size_t consumed = 0;
        const unsigned long parsed = std::stoul(value, &consumed);
        if (value.empty() || value[0] == '-' || consumed != value.size()) {
            throw std::invalid_argument(value);
        }
        return static_cast<std::size_t>(parsed);
    } catch (const std::exception&) {
        invalid_value(flag, value, "a non-negative integer");
    }
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

/// Floating-point value of an `--option=X` argument; exits 2 on junk and
/// trailing garbage (std::stod would silently drop "1.5abc"'s tail).
inline double parse_double(const std::string& arg, const std::string& flag) {
    const std::string value = option_value(arg, flag);
    try {
        std::size_t consumed = 0;
        const double parsed = std::stod(value, &consumed);
        if (value.empty() || consumed != value.size()) {
            throw std::invalid_argument(value);
        }
        return parsed;
    } catch (const std::exception&) {
        invalid_value(flag, value, "a number");
    }
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

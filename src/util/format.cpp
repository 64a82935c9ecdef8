#include "util/format.hpp"

#include <cmath>
#include <cstdio>

namespace natscale {

double seconds_to_hours(double seconds) noexcept { return seconds / 3600.0; }

std::string format_fixed(double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
}

std::string format_count(std::uint64_t value) {
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    const std::size_t first = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        if (i != 0 && (i - first) % 3 == 0 && i >= first) out.push_back(',');
        out.push_back(digits[i]);
    }
    return out;
}

std::string format_duration(double seconds) {
    if (seconds < 0) return std::string(1, '-').append(format_duration(-seconds));
    if (seconds < 60.0) return format_fixed(seconds, seconds < 10 ? 2 : 1) + "s";
    if (seconds < 3600.0) return format_fixed(seconds / 60.0, 1) + "min";
    if (seconds < 48.0 * 3600.0) return format_fixed(seconds / 3600.0, 1) + "h";
    const double days = seconds / 86400.0;
    if (days < 60.0) return format_fixed(days, 1) + "d";
    return format_fixed(days / 365.25, 2) + "y";
}

}  // namespace natscale

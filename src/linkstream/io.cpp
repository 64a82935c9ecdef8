#include "linkstream/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <sstream>

#include "util/contracts.hpp"

namespace natscale {

namespace {

constexpr std::size_t kMaxFields = 8;

/// Lenient split: runs of spaces/tabs/commas separate fields.
std::size_t split_lenient(const std::string& line, std::string_view out[kMaxFields]) {
    std::size_t count = 0;
    std::size_t i = 0;
    const std::size_t n = line.size();
    auto is_sep = [](char c) { return c == ' ' || c == '\t' || c == ',' || c == '\r'; };
    while (i < n && count < kMaxFields) {
        while (i < n && is_sep(line[i])) ++i;
        if (i >= n) break;
        const std::size_t start = i;
        while (i < n && !is_sep(line[i])) ++i;
        out[count++] = std::string_view(line).substr(start, i - start);
    }
    return count;
}

/// Strict split on one delimiter: every occurrence ends a field, so empty
/// fields are visible (and rejected by the caller).
std::size_t split_strict(const std::string& line, char delimiter,
                         std::string_view out[kMaxFields]) {
    std::string_view rest(line);
    if (!rest.empty() && rest.back() == '\r') rest.remove_suffix(1);
    std::size_t count = 0;
    while (count < kMaxFields) {
        const std::size_t pos = rest.find(delimiter);
        out[count++] = rest.substr(0, pos);
        if (pos == std::string_view::npos) break;
        rest.remove_prefix(pos + 1);
    }
    return count;
}

/// getline over all three line-ending conventions: \n, \r\n and the lone \r
/// of classic-Mac spreadsheet exports.  std::getline splits on \n only, which
/// turns a \r-delimited file into one giant "line" whose first row is parsed
/// and the rest silently swallowed as extra fields.  Returns false only at
/// EOF with nothing read.
bool read_csv_line(std::istream& is, std::string& line) {
    using traits = std::char_traits<char>;
    line.clear();
    std::streambuf* buf = is.rdbuf();
    int c = buf->sbumpc();
    if (traits::eq_int_type(c, traits::eof())) {
        is.setstate(std::ios::eofbit | std::ios::failbit);
        return false;
    }
    while (!traits::eq_int_type(c, traits::eof())) {
        if (c == '\n') return true;
        if (c == '\r') {
            if (buf->sgetc() == '\n') buf->sbumpc();  // \r\n counts once
            return true;
        }
        line.push_back(traits::to_char_type(c));
        c = buf->sbumpc();
    }
    return true;  // final line without a terminator
}

/// Accepts integers and decimal fractions, scaled to ticks.
bool parse_csv_time(std::string_view field, double scale, Time& out) {
    double value = 0.0;
    const char* first = field.data();
    const char* last = field.data() + field.size();
    auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) return false;
    const double scaled = value * scale;
    if (!(scaled >= 0.0) || scaled > 9.0e18) return false;
    out = static_cast<Time>(std::llround(scaled));
    return true;
}

struct ColumnRoles {
    std::size_t u = 0, v = 0, t = 0;
    std::size_t width = 0;  // minimum fields a row must carry
};

ColumnRoles resolve_columns(const std::string& columns, const std::string& origin) {
    validate_csv_columns(columns, origin);
    ColumnRoles roles;
    roles.width = columns.size();
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (columns[i] == 'u') roles.u = i;
        if (columns[i] == 'v') roles.v = i;
        if (columns[i] == 't') roles.t = i;
    }
    return roles;
}

/// The parser behind both entry points: consumes `is` one line at a time,
/// so loading a file never materializes more than one line plus the event
/// list.
LoadedStream parse_rows(std::istream& is, const CsvFormat& format, const std::string& origin) {
    const ColumnRoles roles = resolve_columns(format.columns, origin);

    std::string line;
    std::size_t line_number = 0;

    std::vector<Event> events;
    std::vector<std::string> labels;
    std::unordered_map<std::string, NodeId> ids;
    auto intern = [&](std::string_view label) {
        auto [it, inserted] =
            ids.try_emplace(std::string(label), static_cast<NodeId>(labels.size()));
        if (inserted) labels.emplace_back(label);
        return it->second;
    };

    while (read_csv_line(is, line)) {
        ++line_number;
        if (line_number == 1 && line.rfind("\xEF\xBB\xBF", 0) == 0) {
            // UTF-8 BOM from Excel/Sheets exports; left in place it would be
            // interned into the first node label, splitting that node in two.
            line.erase(0, 3);
        }
        if (line_number <= format.skip_header) continue;
        std::string_view fields[kMaxFields];
        std::size_t nf;
        if (format.delimiter == '\0') {
            nf = split_lenient(line, fields);
            if (nf == 0) continue;  // blank
        } else {
            nf = split_strict(line, format.delimiter, fields);
            if (nf == 1 && fields[0].empty()) continue;  // blank
        }
        if (!fields[0].empty() && (fields[0].front() == '#' || fields[0].front() == '%')) {
            continue;  // comment
        }
        if (nf < roles.width) {
            throw io_error(origin, line_number,
                           "row has " + std::to_string(nf) + " fields, layout '" +
                               format.columns + "' needs at least " +
                               std::to_string(roles.width));
        }
        for (std::size_t i = 0; i < roles.width; ++i) {
            if (fields[i].empty()) {
                throw io_error(origin, line_number,
                               "empty field " + std::to_string(i + 1));
            }
        }
        Time t = 0;
        if (!parse_csv_time(fields[roles.t], format.time_scale, t)) {
            throw io_error(origin, line_number,
                           "bad timestamp '" + std::string(fields[roles.t]) + "'");
        }
        const NodeId u = intern(fields[roles.u]);
        const NodeId v = intern(fields[roles.v]);
        if (u == v) {
            if (format.skip_self_loops) continue;
            throw io_error(origin, line_number, "self-loop on node '" + labels[u] + "'");
        }
        events.push_back({u, v, t});
    }
    if (events.empty()) throw std::runtime_error(origin + ": no events");

    Time max_time = 0;
    for (const auto& e : events) max_time = std::max(max_time, e.t);
    LinkStream stream(std::move(events), static_cast<NodeId>(labels.size()), max_time + 1,
                      format.directed);
    return {std::move(stream), std::move(labels)};
}

}  // namespace

void validate_csv_columns(const std::string& columns, const std::string& origin) {
    std::size_t u = 0, v = 0, t = 0;
    bool junk = false;
    for (char c : columns) {
        if (c == 'u') ++u;
        else if (c == 'v') ++v;
        else if (c == 't') ++t;
        else if (c != '_') junk = true;
    }
    if (junk || u != 1 || v != 1 || t != 1 || columns.size() > kMaxFields) {
        throw io_error(origin,
                       "bad column layout '" + columns +
                           "' (expected a string over u, v, t, _ with exactly one of "
                           "each of u, v, t; e.g. uvt, tuv, uv_t)");
    }
}

LoadedStream parse_link_stream(const std::string& text, const CsvFormat& format,
                               const std::string& origin) {
    std::istringstream is(text);
    return parse_rows(is, format, origin);
}

LoadedStream load_link_stream(const std::string& path, const CsvFormat& format) {
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot open '" + path + "'");
    return parse_rows(file, format, path);
}

void save_link_stream(const std::string& path, const LinkStream& stream,
                      const std::vector<std::string>& node_labels) {
    NATSCALE_EXPECTS(node_labels.empty() || node_labels.size() >= stream.num_nodes());
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot open '" + path + "' for writing");
    os << "# natscale link stream: n=" << stream.num_nodes()
       << " events=" << stream.num_events() << " T=" << stream.period_end()
       << (stream.directed() ? " directed" : " undirected") << '\n';
    for (const auto& e : stream.events()) {
        if (node_labels.empty()) {
            os << e.u << ' ' << e.v << ' ' << e.t << '\n';
        } else {
            os << node_labels[e.u] << ' ' << node_labels[e.v] << ' ' << e.t << '\n';
        }
    }
}

}  // namespace natscale

// Reading and writing link streams as text files.
//
// The de-facto standard of temporal-network datasets is one event per line,
// and published traces agree on nothing else: SNAP and KONECT order columns
// `u v t`, the sociopatterns releases `t i j`, delimiters range over tabs,
// commas and runs of spaces, timestamps come in seconds or milliseconds,
// and files open with anything from '#'/'%' comments to a bare header row
// or a UTF-8 BOM, with \n, \r\n or lone \r line endings.  CsvFormat captures
// those degrees of freedom; its defaults read the plain `u v t` format that
// save_link_stream writes.  Node identifiers may be arbitrary strings; they
// are relabelled to the dense range [0, n) and the mapping is returned so
// results can be reported in the original identifiers.
//
// This is the one text parser: every command that takes a text stream
// (find_time_scale, `convert`, load_stream_auto and so the daemon client)
// reads it here.  Malformed rows throw io_error with the path, 1-based line
// number and a named reason.
#pragma once

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "linkstream/link_stream.hpp"

namespace natscale {

/// Thrown on malformed input, with the offending path and line number.
class io_error : public std::runtime_error {
public:
    io_error(const std::string& path, std::size_t line, const std::string& what)
        : std::runtime_error(path + ":" + std::to_string(line) + ": " + what),
          line_number(line) {}

    /// For formats without meaningful line numbers (the binary natbin
    /// loader, linkstream/binary_io); line_number is 0.
    io_error(const std::string& path, const std::string& what)
        : std::runtime_error(path + ": " + what), line_number(0) {}

    std::size_t line_number;
};

/// The wire::Reader failure hook (util/wire.hpp) of the binary files and
/// snapshots: natbin, checkpoints, session snapshots and daemon state.
[[noreturn]] inline void throw_io_error(const std::string& source, const std::string& what) {
    throw io_error(source, what);
}

struct CsvFormat {
    /// Column layout: a string over {u, v, t, _} with exactly one 'u', one
    /// 'v' and one 't'; '_' skips a column (e.g. weights).  Rows may carry
    /// extra trailing columns beyond the layout; they are ignored.
    ///   "uvt"  — SNAP / KONECT edge lists        (u v t)
    ///   "tuv"  — sociopatterns contact lists     (t i j)
    ///   "uv_t" — timestamp after a weight column (u v w t)
    std::string columns = "uvt";

    /// Field delimiter; '\0' (the default) splits leniently on any run of
    /// spaces, tabs or commas.  An explicit delimiter (e.g. ',' or '\t')
    /// splits strictly: every separator ends a field and empty fields are
    /// an error.
    char delimiter = '\0';

    /// Multiplies timestamps before truncation to integer ticks: 1e-3 loads
    /// millisecond files at second resolution, 1000 preserves millisecond
    /// fractions of second-resolution files.
    double time_scale = 1.0;

    /// Unconditionally skipped lines at the top (header rows).  Comment
    /// lines ('#' or '%') are skipped everywhere regardless.
    std::size_t skip_header = 0;

    bool directed = false;
    /// Drop events whose endpoints are equal instead of failing.
    bool skip_self_loops = true;
};

struct LoadedStream {
    LinkStream stream;
    /// Dense id -> original label, indexable by NodeId.
    std::vector<std::string> node_labels;
};

/// Checks a CsvFormat::columns layout.  Throws io_error (line 0) on a
/// layout that is not a permutation of u, v, t plus optional '_' skips.
void validate_csv_columns(const std::string& columns, const std::string& origin);

/// Parses the file at `path` under `format`, streaming it line by line (peak
/// memory is the event list plus one line, never a full copy of the file).
/// Node labels are interned to dense ids in order of first appearance.
/// Throws io_error on malformed rows and std::runtime_error if the file
/// cannot be opened or holds no events.
LoadedStream load_link_stream(const std::string& path, const CsvFormat& format = {});

/// Parses events from a string (same grammar); `origin` names the source in
/// error messages.
LoadedStream parse_link_stream(const std::string& text, const CsvFormat& format = {},
                               const std::string& origin = "<string>");

/// Writes `u v t` lines using the given labels (or dense ids if empty).
void save_link_stream(const std::string& path, const LinkStream& stream,
                      const std::vector<std::string>& node_labels = {});

}  // namespace natscale

#include "util/table.hpp"

#include <algorithm>
#include <ostream>

#include "util/contracts.hpp"

namespace natscale {

ConsoleTable::ConsoleTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
    NATSCALE_EXPECTS(!headers_.empty());
}

void ConsoleTable::add_row(std::vector<std::string> cells) {
    NATSCALE_EXPECTS(cells.size() == headers_.size());
    rows_.push_back(std::move(cells));
}

void ConsoleTable::print(std::ostream& os) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "| " : " | ");
            os << row[c];
            os << std::string(widths[c] - row[c].size(), ' ');
        }
        os << " |\n";
    };
    print_row(headers_);
    os << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        os << std::string(widths[c] + 2, '-') << '|';
    }
    os << '\n';
    for (const auto& row : rows_) print_row(row);
}

}  // namespace natscale

// Console table rendering for benchmark output.
//
// Every bench binary prints the rows/series of the corresponding paper table
// or figure through this class so that all experiment output has a uniform,
// grep-friendly format.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace natscale {

class ConsoleTable {
public:
    /// Column headers fix the width of the table; every row must match.
    explicit ConsoleTable(std::vector<std::string> headers);

    void add_row(std::vector<std::string> cells);

    /// Aligned, pipe-separated rendering with a header rule.
    void print(std::ostream& os) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace natscale

#include "common/table.hh"

#include <algorithm>
#include <sstream>

#include "common/json.hh"

namespace adyna {

TextTable::TextTable(std::string title) : title_(std::move(title)) {}

void
TextTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
TextTable::row(std::vector<std::string> cells)
{
    rows_.push_back({std::move(cells), false});
}

void
TextTable::separator()
{
    rows_.push_back({{}, true});
}

void
TextTable::print(std::ostream &os) const
{
    // Compute per-column widths over header + all rows.
    std::vector<std::size_t> widths;
    auto grow = [&widths](const std::vector<std::string> &cells) {
        if (cells.size() > widths.size())
            widths.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            widths[i] = std::max(widths[i], cells[i].size());
    };
    grow(header_);
    for (const auto &r : rows_)
        grow(r.cells);

    std::size_t lineWidth = 0;
    for (std::size_t w : widths)
        lineWidth += w + 2;
    lineWidth = lineWidth < 2 ? 0 : lineWidth - 2;

    auto emitRow = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << cells[i];
            if (i + 1 < cells.size()) {
                const std::size_t pad = widths[i] - cells[i].size() + 2;
                os << std::string(pad, ' ');
            }
        }
        os << '\n';
    };

    if (!title_.empty()) {
        os << title_ << '\n';
        os << std::string(std::max(lineWidth, title_.size()), '=') << '\n';
    }
    if (!header_.empty()) {
        emitRow(header_);
        os << std::string(lineWidth, '-') << '\n';
    }
    for (const auto &r : rows_) {
        if (r.isSeparator)
            os << std::string(lineWidth, '-') << '\n';
        else
            emitRow(r.cells);
    }
}

std::string
TextTable::str() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

std::string
TextTable::num(double value, int precision)
{
    // Sized like JsonWriter::fixed: a double has at most 309 integer
    // digits, so no value is cut short.
    std::string out;
    appendChars(out, 312 + static_cast<std::size_t>(precision), value,
                std::chars_format::fixed, precision);
    return out;
}

std::string
TextTable::mult(double value, int precision)
{
    return num(value, precision) + "x";
}

std::string
TextTable::pct(double fraction, int precision)
{
    return num(fraction * 100.0, precision) + "%";
}

} // namespace adyna

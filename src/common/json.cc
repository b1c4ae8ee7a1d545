#include "common/json.hh"

#include "common/logging.hh"

namespace adyna {

JsonWriter &
JsonWriter::open(char bracket, JsonLayout layout)
{
    place();
    out_ += bracket;
    open_.push_back(layout);
    first_ = true;
    return *this;
}

JsonWriter &
JsonWriter::close(char bracket)
{
    ADYNA_ASSERT(!open_.empty() && !afterKey_, "unbalanced JSON ",
                 bracket);
    if (open_.back() == JsonLayout::Indented) {
        out_ += '\n';
        out_.append(2 * (open_.size() - 1), ' ');
    }
    out_ += bracket;
    open_.pop_back();
    first_ = false; // the closed container was a member
    return *this;
}

void
JsonWriter::place()
{
    if (afterKey_ || open_.empty()) {
        afterKey_ = false;
        return;
    }
    if (!first_)
        out_ += ',';
    if (open_.back() == JsonLayout::Indented && !sameLine_) {
        out_ += '\n';
        out_.append(2 * open_.size(), ' ');
    } else if (open_.back() != JsonLayout::Compact && !first_) {
        out_ += ' ';
    }
    first_ = sameLine_ = false;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    ADYNA_ASSERT(!open_.empty() && !afterKey_, "misplaced JSON key ",
                 name);
    place();
    appendString(name);
    out_ += open_.back() == JsonLayout::Compact ? ":" : ": ";
    afterKey_ = true;
    return *this;
}

void
JsonWriter::appendString(std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += '"';
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out_ += '\\';
            out_ += c;
        } else if (c == '\n') {
            out_ += "\\n";
        } else if (c == '\t') {
            out_ += "\\t";
        } else if (u < 0x20) {
            out_ += "\\u00";
            out_ += kHex[u >> 4];
            out_ += kHex[u & 0xf];
        } else {
            out_ += c;
        }
    }
    out_ += '"';
}

std::string
JsonWriter::take()
{
    ADYNA_ASSERT(open_.empty(), "unclosed JSON container");
    return std::move(out_);
}

} // namespace adyna

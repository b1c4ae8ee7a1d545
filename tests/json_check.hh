/**
 * @file
 * Test helper: a strict JSON syntax check (RFC 8259) for the report
 * emitters' tests. It accepts exactly one well-formed value with
 * optional surrounding whitespace; it builds nothing.
 */

#ifndef ADYNA_TESTS_JSON_CHECK_HH
#define ADYNA_TESTS_JSON_CHECK_HH

#include <cctype>
#include <cstddef>
#include <string_view>

namespace adyna::test {

class JsonChecker
{
  public:
    explicit JsonChecker(std::string_view text) : s_(text) {}

    bool valid()
    {
        skipSpace();
        if (!value())
            return false;
        skipSpace();
        return i_ == s_.size();
    }

  private:
    bool at(char c) const { return i_ < s_.size() && s_[i_] == c; }

    bool digit() const
    {
        return i_ < s_.size() &&
               std::isdigit(static_cast<unsigned char>(s_[i_]));
    }

    void skipSpace()
    {
        while (at(' ') || at('\n') || at('\t') || at('\r'))
            ++i_;
    }

    bool value()
    {
        if (at('{'))
            return members('}', true);
        if (at('['))
            return members(']', false);
        if (at('"'))
            return string();
        if (at('t'))
            return literal("true");
        if (at('f'))
            return literal("false");
        if (at('n'))
            return literal("null");
        return number();
    }

    /** An object (keyed) or array body up to @p close. */
    bool members(char close, bool keyed)
    {
        ++i_;
        skipSpace();
        if (at(close)) {
            ++i_;
            return true;
        }
        for (;;) {
            skipSpace();
            if (keyed) {
                if (!string())
                    return false;
                skipSpace();
                if (!at(':'))
                    return false;
                ++i_;
                skipSpace();
            }
            if (!value())
                return false;
            skipSpace();
            if (at(close)) {
                ++i_;
                return true;
            }
            if (!at(','))
                return false;
            ++i_;
        }
    }

    bool string()
    {
        if (!at('"'))
            return false;
        for (++i_; i_ < s_.size(); ++i_) {
            const auto c = static_cast<unsigned char>(s_[i_]);
            if (c == '"') {
                ++i_;
                return true;
            }
            if (c < 0x20)
                return false;
            if (c != '\\')
                continue;
            if (++i_ >= s_.size())
                return false;
            if (s_[i_] == 'u') {
                for (int k = 0; k < 4; ++k)
                    if (++i_ >= s_.size() ||
                        !std::isxdigit(
                            static_cast<unsigned char>(s_[i_])))
                        return false;
            } else if (std::string_view("\"\\/bfnrt").find(s_[i_]) ==
                       std::string_view::npos) {
                return false;
            }
        }
        return false;
    }

    bool literal(std::string_view word)
    {
        if (s_.substr(i_, word.size()) != word)
            return false;
        i_ += word.size();
        return true;
    }

    bool number()
    {
        if (at('-'))
            ++i_;
        if (at('0')) {
            ++i_;
        } else if (digit()) {
            while (digit())
                ++i_;
        } else {
            return false;
        }
        if (at('.')) {
            ++i_;
            if (!digit())
                return false;
            while (digit())
                ++i_;
        }
        if (at('e') || at('E')) {
            ++i_;
            if (at('+') || at('-'))
                ++i_;
            if (!digit())
                return false;
            while (digit())
                ++i_;
        }
        return true;
    }

    std::string_view s_;
    std::size_t i_ = 0;
};

/** True when @p text is exactly one well-formed JSON value. */
inline bool
isValidJson(std::string_view text)
{
    return JsonChecker(text).valid();
}

} // namespace adyna::test

#endif // ADYNA_TESTS_JSON_CHECK_HH

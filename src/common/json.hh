/**
 * @file
 * The one JSON writer behind every report and BENCH_*.json file. It
 * owns escaping, separators, nesting, the indented file layout and
 * both number styles: value() writes a double as the ostream default
 * (printf "%.6g"), fixed() as printf "%.*f".
 */

#ifndef ADYNA_COMMON_JSON_HH
#define ADYNA_COMMON_JSON_HH

#include <charconv>
#include <concepts>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace adyna {

/** How one object or array separates its members. */
enum class JsonLayout
{
    Compact,  ///< {"a":1,"b":[1,2]}
    Spaced,   ///< {"a": 1, "b": [1, 2]}
    Indented, ///< a member per line, two spaces per level; an empty
              ///< container still closes on a line of its own
};

/** Append std::to_chars(@p args...), which is exact and matches
 * printf in the "C" locale, to @p out; @p room bounds its length. */
template <typename... Args>
void
appendChars(std::string &out, std::size_t room, Args... args)
{
    const std::size_t at = out.size();
    out.resize(at + room);
    const auto res =
        std::to_chars(out.data() + at, out.data() + out.size(), args...);
    out.resize(static_cast<std::size_t>(res.ptr - out.data()));
}

/** Append an integer in decimal, or a double as the ostream default
 * does (printf "%.6g", at most 13 characters). */
template <typename T>
    requires std::is_arithmetic_v<T> && (!std::same_as<T, bool>)
void
appendNumber(std::string &out, T v)
{
    if constexpr (std::is_integral_v<T>)
        appendChars(out, std::numeric_limits<T>::digits10 + 2, v);
    else
        appendChars(out, 16, static_cast<double>(v),
                    std::chars_format::general, 6);
}

/** Builds one JSON document in memory. */
class JsonWriter
{
  public:
    /** Open an object or array: as the document, as the value of the
     * last key, or as the next element of the open array. */
    JsonWriter &beginObject(JsonLayout layout = JsonLayout::Spaced)
    {
        return open('{', layout);
    }
    JsonWriter &beginArray(JsonLayout layout = JsonLayout::Spaced)
    {
        return open('[', layout);
    }
    JsonWriter &endObject() { return close('}'); }
    JsonWriter &endArray() { return close(']'); }

    /** The next member's key in the open object; its value follows. */
    JsonWriter &key(std::string_view name);

    /** A value: true or false, a number, or a string with the quote,
     * the backslash and every control character escaped. */
    template <typename T>
    JsonWriter &value(const T &v)
    {
        place();
        if constexpr (std::same_as<T, bool>)
            out_ += v ? "true" : "false";
        else if constexpr (std::is_arithmetic_v<T>)
            appendNumber(out_, v);
        else
            appendString(v);
        return *this;
    }

    /** key(@p name), then value(@p v). */
    template <typename T>
    JsonWriter &field(std::string_view name, const T &v)
    {
        return key(name).value(v);
    }

    /** key(@p name), then @p v as printf "%.*f" with @p digits
     * decimals (a finite double has at most 309 integer digits). */
    JsonWriter &fixed(std::string_view name, double v, int digits)
    {
        key(name).place();
        appendChars(out_, 312 + static_cast<std::size_t>(digits), v,
                    std::chars_format::fixed, digits);
        return *this;
    }

    /** Put the next member of the open Indented container on the
     * current line, after ", ". */
    JsonWriter &sameLine() { sameLine_ = true; return *this; }

    /** The finished document. */
    std::string take();

  private:
    JsonWriter &open(char bracket, JsonLayout layout);
    JsonWriter &close(char bracket);

    /** Separate the next key, or a value with no key, from the member
     * before it. */
    void place();

    void appendString(std::string_view s);

    std::string out_;
    std::vector<JsonLayout> open_; ///< the open containers' layouts
    bool first_ = true;            ///< the innermost has no member yet
    bool afterKey_ = false;
    bool sameLine_ = false;
};

} // namespace adyna

#endif // ADYNA_COMMON_JSON_HH

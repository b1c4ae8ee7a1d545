#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>

namespace perfbench {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // Linux reports ru_maxrss in kilobytes.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h)
{
    for (unsigned char c : bytes)
        h = (h ^ c) * 0x100000001b3ull;
    return h;
}

ReferenceKernel::ReferenceKernel() : table_(std::size_t{1} << 19)
{
    for (int i = 0; i < 3; ++i) // fault in and warm the table
        runMs();
}

double
ReferenceKernel::runMs()
{
    const std::size_t mask = table_.size() - 1;
    const double t0 = nowMs();
    for (int i = 0; i < 100000; ++i) {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        sum_ += table_[x_ & mask]++;
    }
    return nowMs() - t0;
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double logs = 0.0;
    for (double x : v)
        logs += std::log(x);
    return std::exp(logs / static_cast<double>(v.size()));
}

int
SpanLog::open(std::string name, int cell)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.cell = cell;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.startMs = nowMs();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].endMs = nowMs();
    // Spans close in LIFO order (ScopedSpan), so the top is @p id.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

void
SpanLog::counter(int id, std::string key, double value)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].counters.emplace_back(
        std::move(key), value);
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(s.endMs - s.startMs);
    return out;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
            << ", \"start_ms\": " << jsonNumber(s.startMs)
            << ", \"end_ms\": " << jsonNumber(s.endMs)
            << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell
            << ", \"counters\": {";
        for (std::size_t c = 0; c < s.counters.size(); ++c)
            out << (c ? ", " : "") << jsonString(s.counters[c].first)
                << ": " << jsonNumber(s.counters[c].second);
        out << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        list_[it->second] = {name, value, unit};
        return;
    }
    index_[name] = list_.size();
    list_.push_back({name, value, unit});
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace perfbench

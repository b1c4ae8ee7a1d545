#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace adyna {

namespace {

/** Search comparator: entry @p e holds a value below @p v. */
constexpr auto valueBelow = [](const FreqHistogram::Entry &e,
                               std::int64_t v) { return e.first < v; };

} // namespace

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    sumSq_ += x * x;
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
    sumSq_ += other.sumSq_;
}

void
RunningStats::reset()
{
    *this = RunningStats{};
}

double
RunningStats::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
RunningStats::variance() const
{
    if (count_ == 0)
        return 0.0;
    const double m = mean();
    const double var = sumSq_ / static_cast<double>(count_) - m * m;
    return var < 0.0 ? 0.0 : var; // guard against FP cancellation
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
RunningStats::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

void
FreqHistogram::add(std::int64_t value, std::uint64_t weight)
{
    if (weight == 0)
        return;
    const auto it =
        std::lower_bound(counts_.begin(), counts_.end(), value, valueBelow);
    if (it != counts_.end() && it->first == value)
        it->second += weight;
    else
        counts_.insert(it, {value, weight});
    total_ += weight;
}

void
FreqHistogram::merge(const FreqHistogram &other)
{
    for (const auto &[value, count] : other.counts_)
        add(value, count);
}

void
FreqHistogram::reset()
{
    counts_.clear();
    total_ = 0;
}

std::uint64_t
FreqHistogram::count(std::int64_t value) const
{
    const auto it =
        std::lower_bound(counts_.begin(), counts_.end(), value, valueBelow);
    return it != counts_.end() && it->first == value ? it->second : 0;
}

double
FreqHistogram::expectation() const
{
    if (total_ == 0)
        return 0.0;
    double acc = 0.0;
    for (const auto &[value, count] : counts_)
        acc += static_cast<double>(value) * static_cast<double>(count);
    return acc / static_cast<double>(total_);
}

double
FreqHistogram::variance() const
{
    if (total_ == 0)
        return 0.0;
    const double m = expectation();
    double acc = 0.0;
    for (const auto &[value, count] : counts_) {
        const double d = static_cast<double>(value) - m;
        acc += d * d * static_cast<double>(count);
    }
    return acc / static_cast<double>(total_);
}

std::int64_t
FreqHistogram::maxValue() const
{
    return counts_.empty() ? 0 : counts_.back().first;
}

std::int64_t
FreqHistogram::minValue() const
{
    return counts_.empty() ? 0 : counts_.front().first;
}

std::int64_t
FreqHistogram::quantile(double q) const
{
    ADYNA_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
    if (counts_.empty())
        return 0;
    const double target = q * static_cast<double>(total_);
    std::uint64_t acc = 0;
    for (const auto &[value, count] : counts_) {
        acc += count;
        if (static_cast<double>(acc) >= target)
            return value;
    }
    return counts_.back().first;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values) {
        ADYNA_ASSERT(v > 0.0, "geomean requires positive values, got ", v);
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    ADYNA_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
distributionL1(const FreqHistogram &a, const FreqHistogram &b,
               int buckets)
{
    if (a.empty() || b.empty())
        return 0.0;

    const auto &sa = a.sorted();
    const auto &sb = b.sorted();
    const double totA = static_cast<double>(a.total());
    const double totB = static_cast<double>(b.total());

    // Exact per-value distance when the union is small enough.
    std::int64_t lo = std::min(a.minValue(), b.minValue());
    std::int64_t hi = std::max(a.maxValue(), b.maxValue());
    std::size_t distinctUnion = 0;
    {
        std::size_t ia = 0, ib = 0;
        while (ia < sa.size() || ib < sb.size()) {
            if (ib == sb.size() ||
                (ia < sa.size() && sa[ia].first < sb[ib].first)) {
                ++ia;
            } else if (ia == sa.size() ||
                       sb[ib].first < sa[ia].first) {
                ++ib;
            } else {
                ++ia;
                ++ib;
            }
            ++distinctUnion;
        }
    }

    if (buckets <= 0 ||
        distinctUnion <= static_cast<std::size_t>(buckets)) {
        double dist = 0.0;
        std::size_t ia = 0, ib = 0;
        while (ia < sa.size() || ib < sb.size()) {
            double pa = 0.0, pb = 0.0;
            if (ib == sb.size() ||
                (ia < sa.size() && sa[ia].first < sb[ib].first)) {
                pa = static_cast<double>(sa[ia++].second) / totA;
            } else if (ia == sa.size() ||
                       sb[ib].first < sa[ia].first) {
                pb = static_cast<double>(sb[ib++].second) / totB;
            } else {
                pa = static_cast<double>(sa[ia++].second) / totA;
                pb = static_cast<double>(sb[ib++].second) / totB;
            }
            dist += std::abs(pa - pb);
        }
        return dist;
    }

    // Fold both distributions onto equal-width buckets spanning the
    // combined range so the metric's sampling noise scales with the
    // bucket count, not with the number of distinct raw values.
    const double width = static_cast<double>(hi - lo + 1) /
                         static_cast<double>(buckets);
    const auto bucketOf = [&](std::int64_t v) {
        const auto i = static_cast<std::size_t>(
            static_cast<double>(v - lo) / width);
        return std::min<std::size_t>(
            i, static_cast<std::size_t>(buckets) - 1);
    };
    std::vector<double> pa(static_cast<std::size_t>(buckets), 0.0);
    std::vector<double> pb(static_cast<std::size_t>(buckets), 0.0);
    for (const auto &[v, c] : sa)
        pa[bucketOf(v)] += static_cast<double>(c) / totA;
    for (const auto &[v, c] : sb)
        pb[bucketOf(v)] += static_cast<double>(c) / totB;
    double dist = 0.0;
    for (std::size_t i = 0; i < pa.size(); ++i)
        dist += std::abs(pa[i] - pb[i]);
    return dist;
}

} // namespace adyna

/**
 * @file
 * Lightweight statistics containers used by the simulator, the
 * hardware profiler model, and the benchmarks: running scalar
 * summaries and value-frequency histograms over integer domains.
 */

#ifndef ADYNA_COMMON_STATS_HH
#define ADYNA_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace adyna {

/** Running mean / variance / min / max of a scalar series. */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another summary into this one. */
    void merge(const RunningStats &other);

    /** Remove all observations. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    /** Population variance. */
    double variance() const;
    double stddev() const;
    double min() const;
    double max() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Value -> occurrence-count histogram over a non-negative integer
 * domain. This is the exact structure maintained by the hardware
 * profiler's frequency track tables (Section IV of the paper) and
 * consumed by the frequency-weighted scheduler and the multi-kernel
 * sampling algorithm. The (value, count) pairs live in one vector
 * sorted by value, so every sum over them runs in ascending value
 * order; a value already present is counted without allocating, and
 * reset() keeps the storage for the next window.
 */
class FreqHistogram
{
  public:
    using Entry = std::pair<std::int64_t, std::uint64_t>;

    /** Record one occurrence of @p value (optionally weighted). */
    void add(std::int64_t value, std::uint64_t weight = 1);

    /** Merge another histogram into this one. */
    void merge(const FreqHistogram &other);

    /** Discard all recorded occurrences. */
    void reset();

    /** Total number of recorded occurrences. */
    std::uint64_t total() const { return total_; }

    /** Number of distinct values observed. */
    std::size_t distinct() const { return counts_.size(); }

    /** Occurrences of one specific value. */
    std::uint64_t count(std::int64_t value) const;

    /** Expectation of the value distribution; 0 if empty. */
    double expectation() const;

    /** Population variance of the value distribution; 0 if empty. */
    double variance() const;

    /** Largest observed value; 0 if empty. */
    std::int64_t maxValue() const;

    /** Smallest observed value; 0 if empty. */
    std::int64_t minValue() const;

    /** Smallest value v such that P(X <= v) >= q, for q in [0,1]. */
    std::int64_t quantile(double q) const;

    /** (value, count) pairs, ascending by value, every count > 0. */
    const std::vector<Entry> &sorted() const { return counts_; }

    bool empty() const { return counts_.empty(); }

  private:
    std::vector<Entry> counts_;
    std::uint64_t total_ = 0;
};

/** Geometric mean of a series of positive values; 0 if empty. */
double geomean(const std::vector<double> &values);

/**
 * q-quantile (q in [0, 1]) of a sample, by linear interpolation
 * between the two nearest order statistics; 0 if the sample is
 * empty. The input is taken by value and sorted internally.
 */
double percentile(std::vector<double> values, double q);

/**
 * L1 distance between the normalized value distributions of two
 * histograms, in [0, 2] (0 = identical, 2 = disjoint support). When
 * the union of observed values spans more than @p buckets distinct
 * values, both distributions are first folded onto @p buckets
 * equal-width buckets over the combined value range, which keeps the
 * sampling noise of the metric independent of the domain size;
 * buckets <= 0 disables folding. Returns 0 if either histogram is
 * empty.
 */
double distributionL1(const FreqHistogram &a, const FreqHistogram &b,
                      int buckets = 0);

} // namespace adyna

#endif // ADYNA_COMMON_STATS_HH

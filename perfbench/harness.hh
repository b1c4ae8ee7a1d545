/**
 * @file
 * Measurement plumbing shared by the benchmark's workloads: a steady
 * wall clock, order statistics, an output digest, the in-memory span
 * log of the traced run, and the metric list printed at the end.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/** Milliseconds on the steady clock (arbitrary epoch). */
double nowMs();

/** Process peak resident set size, MB. */
double peakRssMb();

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/**
 * A fixed reference workload, timed alongside the cells: random
 * read-modify-writes over a 4 MB table, about 1 ms on an idle 2 GHz
 * core. When other tenants of the machine contend for its memory
 * system, this loop slows down with the simulator, though by more
 * than most cells (README.md gives the factors per workload), so host
 * times divided by it are steadier across calm and busy phases than
 * raw times, and read somewhat fast in the busy ones.
 */
class ReferenceKernel
{
  public:
    /** Nominal duration the scaled host times are expressed in. */
    static constexpr double kNominalMs = 1.0;

    ReferenceKernel();

    /** Run the loop once; returns its wall time, ms. */
    double runMs();

  private:
    std::vector<std::uint64_t> table_;
    std::uint64_t x_ = 0x9e3779b97f4a7c15ull;
    std::uint64_t sum_ = 0;
};

/** Order statistics of a sample (copies; samples are small). */
double median(std::vector<double> v);

/** Nearest-rank percentile, q in [0, 1]. */
double percentile(std::vector<double> v, double q);

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &v);

/**
 * The traced run's span log. Each span wraps one call the benchmark
 * makes into a layer's public function; spans nest through a stack
 * of open spans, so a span's parent is whatever was open when it
 * began. Counters read after the call ride on the span. Everything
 * stays in memory until writeJson() at exit. When disabled, open()
 * returns -1 and records nothing.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double startMs = 0.0;
        double endMs = 0.0;
        int parent = -1;
        int cell = -1;
        std::vector<std::pair<std::string, double>> counters;
    };

    void setEnabled(bool on) { enabled_ = on; }

    /** Begin a span; returns its id (-1 when disabled). */
    int open(std::string name, int cell);

    /** End span @p id (a no-op for -1). */
    void close(int id);

    /** Attach a counter read after the call to span @p id. */
    void counter(int id, std::string key, double value);

    /** Durations of every span named @p name, ms. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Write every span as one JSON document. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, std::string name, int cell)
        : log_(log), id_(log.open(std::move(name), cell))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void counter(std::string key, double value)
    {
        log_.counter(id_, std::move(key), value);
    }

  private:
    SpanLog &log_;
    int id_;
};

/** One named metric value with its unit, in print order. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Ordered metric list; set() overwrites an existing name. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &all() const { return list_; }

  private:
    std::vector<Metric> list_;
    std::map<std::string, std::size_t> index_;
};

/** Exact decimal form of @p v for JSON (17 significant digits). */
std::string jsonNumber(double v);

/** JSON string literal of @p s. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH

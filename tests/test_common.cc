/**
 * @file
 * Unit tests for the common substrate: RNG determinism and
 * distribution sanity, statistics containers, table rendering, and
 * CLI parsing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace {

using namespace adyna;

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(2, 5);
        ASSERT_GE(v, 2);
        ASSERT_LE(v, 5);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(9, 9), 9);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng rng(5);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng rng(13);
    std::vector<double> weights{1.0, 3.0};
    int ones = 0;
    for (int i = 0; i < 20000; ++i)
        ones += rng.categorical(weights) == 1;
    EXPECT_NEAR(ones / 20000.0, 0.75, 0.02);
}

TEST(Rng, CategoricalSkipsZeroWeight)
{
    Rng rng(17);
    std::vector<double> weights{0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.categorical(weights), 1u);
}

/** The per-token routine TopKSampler replaced: k sequential
 * categorical draws, each pick's weight zeroed before the next. */
std::vector<std::size_t>
sequentialTopK(Rng &rng, std::vector<double> weights, std::size_t k)
{
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t idx = rng.categorical(weights);
        chosen.push_back(idx);
        weights[idx] = 0.0;
    }
    return chosen;
}

/** Sampler weight cases: random weights over 1..16 indices, a
 * quarter of them zero, plus Tutel-MoE's expert bias under 16 drift
 * tilts exp(0.9 z). */
std::vector<std::vector<double>>
samplerCases(Rng &gen)
{
    std::vector<std::vector<double>> cases;
    for (std::size_t n = 1; n <= 16; ++n)
        for (int rep = 0; rep < 4; ++rep) {
            std::vector<double> w(n);
            for (double &x : w)
                x = gen.bernoulli(0.25) ? 0.0 : gen.uniform(0.01, 5.0);
            w[static_cast<std::size_t>(gen.uniformInt(
                0, static_cast<std::int64_t>(n) - 1))] = 1.0;
            cases.push_back(std::move(w));
        }
    const std::vector<double> bias{4.0, 2.5, 2.0, 1.5,
                                   1.0, 0.8, 0.6, 0.4};
    for (int tilt = 0; tilt < 16; ++tilt) {
        std::vector<double> w = bias;
        for (double &x : w)
            x *= std::exp(0.9 * gen.normal());
        cases.push_back(std::move(w));
    }
    return cases;
}

TEST(Rng, TopKSamplerMatchesSequentialCategorical)
{
    Rng gen(37);
    const std::vector<std::vector<double>> cases = samplerCases(gen);

    Rng a(41), b(41);
    TopKSampler sampler;
    std::size_t draws = 0;
    for (const std::vector<double> &w : cases) {
        std::size_t positive = 0;
        for (double x : w)
            positive += x > 0.0;
        for (std::size_t k = 1; k <= positive; ++k) {
            sampler.reset(w, k);
            for (int d = 0; d < 300; ++d, ++draws)
                ASSERT_EQ(sampler.draw(b), sequentialTopK(a, w, k))
                    << "n=" << w.size() << " k=" << k << " draw " << d;
            ASSERT_EQ(a.next(), b.next())
                << "streams diverged at n=" << w.size() << " k=" << k;
        }
    }
    EXPECT_GE(draws, 100000u);
}

/** categorical's pick at the 53 bits @p u behind its uniform() draw:
 * a test-side copy of its in-order sum and sequential scan. Sets
 * @p fellBack when rounding leaves the draw unspent. */
std::size_t
scanAt(std::uint64_t u, const std::vector<double> &weights,
       bool *fellBack = nullptr)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double draw = static_cast<double>(u) * 0x1.0p-53 * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw < 0.0)
            return i;
    }
    if (fellBack)
        *fellBack = true;
    return weights.size() - 1;
}

/**
 * Random draws almost never land on a pick boundary, so this checks
 * the sampler's tables where they can be wrong: at every threshold t,
 * at t - 1 and at both ends of the u range, the table's first pick and
 * its second pick after each first pick must be the scan's.
 */
TEST(Rng, TopKSamplerThresholdsMatchScanAtEveryBoundary)
{
    constexpr std::uint64_t kLastU = (std::uint64_t{1} << 53) - 1;
    Rng gen(53);
    std::vector<std::vector<double>> cases = samplerCases(gen);
    // 0.1 + 0.2 + 0.3 rounds up, so at the largest u the draw is left
    // unspent and the fallback picks the last, zero-weight index.
    const std::vector<double> fallback{0.1, 0.2, 0.3, 0.0};
    bool fellBack = false;
    ASSERT_EQ(scanAt(kLastU, fallback, &fellBack), 3u);
    ASSERT_TRUE(fellBack);
    cases.push_back(fallback);

    std::size_t checked = 0;
    const auto expectScan = [&](std::span<const std::uint64_t> table,
                                const std::vector<double> &w,
                                const std::string &what) {
        std::vector<std::uint64_t> us{0, kLastU};
        for (std::uint64_t t : table) {
            if (t <= kLastU)
                us.push_back(t);
            if (t > 0)
                us.push_back(t - 1);
        }
        for (std::uint64_t u : us) {
            ASSERT_EQ(TopKSampler::pick(table, u), scanAt(u, w))
                << what << " at u = " << u;
            ++checked;
        }
    };
    TopKSampler sampler;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const std::vector<double> &w = cases[c];
        sampler.reset(w, 2);
        const std::string name = "case " + std::to_string(c);
        expectScan(sampler.firstThresholds(), w, name + " first pick");
        for (std::size_t p = 0; p < w.size(); ++p) {
            std::vector<double> zeroed = w;
            zeroed[p] = 0.0;
            double rest = 0.0;
            for (double x : zeroed)
                rest += x;
            if (rest > 0.0)
                expectScan(sampler.secondThresholds(p), zeroed,
                           name + " second pick after " +
                               std::to_string(p));
        }
    }
    EXPECT_GE(checked, 10000u);
}

TEST(Rng, SkipNormalsLeavesTheStreamWhereNormalsDo)
{
    for (const bool spare : {false, true})
        for (std::size_t n = 0; n <= 7; ++n) {
            Rng drawn(59), skipped(59);
            if (spare) { // one normal() leaves its pair's spare
                (void)drawn.normal();
                (void)skipped.normal();
            }
            for (std::size_t i = 0; i < n; ++i)
                (void)drawn.normal();
            skipped.skipNormals(n);
            Rng drawnRaw = drawn, skippedRaw = skipped;
            EXPECT_EQ(skippedRaw.next(), drawnRaw.next())
                << "n = " << n << (spare ? " after a spare" : "");
            EXPECT_EQ(skipped.normal(), drawn.normal())
                << "n = " << n << (spare ? " after a spare" : "");
        }
}

TEST(TopKSamplerDeathTest, NegativeOrNanWeightPanics)
{
    TopKSampler sampler;
    EXPECT_DEATH(sampler.reset({1.0, -0.5, 2.0}, 1),
                 "negative categorical weight");
    EXPECT_DEATH(sampler.reset({1.0, std::nan("")}, 1),
                 "negative categorical weight");
}

TEST(TopKSamplerDeathTest, MorePicksThanPositiveWeightsPanics)
{
    Rng rng(43);
    TopKSampler sampler;
    sampler.reset({1.0, 0.0, 2.0}, 3);
    EXPECT_DEATH((void)sampler.draw(rng),
                 "categorical weights sum to zero");
    // The first and second picks, answered from tables, check too.
    sampler.reset({0.0, 0.0}, 1);
    EXPECT_DEATH((void)sampler.draw(rng),
                 "categorical weights sum to zero");
    sampler.reset({0.0, 1.0}, 2);
    EXPECT_DEATH((void)sampler.draw(rng),
                 "categorical weights sum to zero");
}

TEST(Rng, BinomialSmallNExact)
{
    Rng rng(19);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.binomial(10, 0.4));
    EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(Rng, BinomialLargeNApproximation)
{
    Rng rng(23);
    RunningStats stats;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.binomial(1000, 0.25);
        ASSERT_LE(v, 1000u);
        stats.add(v);
    }
    EXPECT_NEAR(stats.mean(), 250.0, 3.0);
}

TEST(Rng, BinomialEdgeProbabilities)
{
    Rng rng(29);
    EXPECT_EQ(rng.binomial(100, 0.0), 0u);
    EXPECT_EQ(rng.binomial(100, 1.0), 100u);
    EXPECT_EQ(rng.binomial(0, 0.5), 0u);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += parent.next() == child.next();
    EXPECT_LT(same, 2);
}

// ------------------------------------------------------- RunningStats

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeEqualsCombinedStream)
{
    RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        a.add(i);
        all.add(i);
    }
    for (int i = 50; i < 120; ++i) {
        b.add(i * 0.5);
        all.add(i * 0.5);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeIntoEmpty)
{
    RunningStats a, b;
    b.add(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
}

// ------------------------------------------------------ FreqHistogram

TEST(FreqHistogram, ExpectationAndVariance)
{
    FreqHistogram h;
    h.add(2, 3); // three 2s
    h.add(6, 1); // one 6
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.expectation(), 3.0);
    EXPECT_DOUBLE_EQ(h.variance(), 3.0);
    EXPECT_EQ(h.minValue(), 2);
    EXPECT_EQ(h.maxValue(), 6);
}

TEST(FreqHistogram, EmptyDefaults)
{
    FreqHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.expectation(), 0.0);
    EXPECT_EQ(h.quantile(0.5), 0);
}

TEST(FreqHistogram, QuantileStepsThroughMass)
{
    FreqHistogram h;
    h.add(1, 50);
    h.add(10, 50);
    EXPECT_EQ(h.quantile(0.0), 1);
    EXPECT_EQ(h.quantile(0.5), 1);
    EXPECT_EQ(h.quantile(0.51), 10);
    EXPECT_EQ(h.quantile(1.0), 10);
}

TEST(FreqHistogram, MergeAddsCounts)
{
    FreqHistogram a, b;
    a.add(1, 2);
    b.add(1, 3);
    b.add(5, 1);
    a.merge(b);
    EXPECT_EQ(a.count(1), 5u);
    EXPECT_EQ(a.count(5), 1u);
    EXPECT_EQ(a.total(), 6u);
}

TEST(FreqHistogram, SortedPairsAscending)
{
    FreqHistogram h;
    h.add(9);
    h.add(1);
    h.add(5);
    const auto pairs = h.sorted();
    ASSERT_EQ(pairs.size(), 3u);
    EXPECT_EQ(pairs[0].first, 1);
    EXPECT_EQ(pairs[2].first, 9);
}

/**
 * The histogram as first written: a std::map from value to count,
 * with every summary computed over the map in ascending value order.
 * The flat histogram must match it bit for bit.
 */
struct MapHistogram
{
    std::map<std::int64_t, std::uint64_t> counts;
    std::uint64_t total = 0;

    void add(std::int64_t value, std::uint64_t weight)
    {
        if (weight == 0)
            return;
        counts[value] += weight;
        total += weight;
    }

    void merge(const MapHistogram &other)
    {
        for (const auto &[value, count] : other.counts)
            add(value, count);
    }

    double expectation() const
    {
        if (total == 0)
            return 0.0;
        double acc = 0.0;
        for (const auto &[value, count] : counts)
            acc += static_cast<double>(value) * static_cast<double>(count);
        return acc / static_cast<double>(total);
    }

    double variance() const
    {
        if (total == 0)
            return 0.0;
        const double m = expectation();
        double acc = 0.0;
        for (const auto &[value, count] : counts) {
            const double d = static_cast<double>(value) - m;
            acc += d * d * static_cast<double>(count);
        }
        return acc / static_cast<double>(total);
    }

    std::int64_t quantile(double q) const
    {
        if (counts.empty())
            return 0;
        const double target = q * static_cast<double>(total);
        std::uint64_t acc = 0;
        for (const auto &[value, count] : counts) {
            acc += count;
            if (static_cast<double>(acc) >= target)
                return value;
        }
        return counts.rbegin()->first;
    }
};

/** distributionL1 over two map histograms, as first written. */
double
mapDistributionL1(const MapHistogram &a, const MapHistogram &b,
                  int buckets)
{
    if (a.counts.empty() || b.counts.empty())
        return 0.0;
    const double totA = static_cast<double>(a.total);
    const double totB = static_cast<double>(b.total);
    const std::int64_t lo =
        std::min(a.counts.begin()->first, b.counts.begin()->first);
    const std::int64_t hi =
        std::max(a.counts.rbegin()->first, b.counts.rbegin()->first);
    std::set<std::int64_t> values;
    for (const auto &[v, c] : a.counts)
        values.insert(v);
    for (const auto &[v, c] : b.counts)
        values.insert(v);
    const auto mass = [](const MapHistogram &h, std::int64_t v) {
        const auto it = h.counts.find(v);
        return it == h.counts.end() ? 0.0 : static_cast<double>(it->second);
    };
    if (buckets <= 0 || values.size() <= static_cast<std::size_t>(buckets)) {
        double dist = 0.0;
        for (std::int64_t v : values)
            dist += std::abs(mass(a, v) / totA - mass(b, v) / totB);
        return dist;
    }
    const double width = static_cast<double>(hi - lo + 1) /
                         static_cast<double>(buckets);
    const auto bucketOf = [&](std::int64_t v) {
        const auto i =
            static_cast<std::size_t>(static_cast<double>(v - lo) / width);
        return std::min<std::size_t>(i, static_cast<std::size_t>(buckets) -
                                            1);
    };
    std::vector<double> pa(static_cast<std::size_t>(buckets), 0.0);
    std::vector<double> pb(static_cast<std::size_t>(buckets), 0.0);
    for (const auto &[v, c] : a.counts)
        pa[bucketOf(v)] += static_cast<double>(c) / totA;
    for (const auto &[v, c] : b.counts)
        pb[bucketOf(v)] += static_cast<double>(c) / totB;
    double dist = 0.0;
    for (std::size_t i = 0; i < pa.size(); ++i)
        dist += std::abs(pa[i] - pb[i]);
    return dist;
}

/**
 * Random add, merge and reset streams into two flat histograms and
 * two map ones: narrow per-request values (a batch-1 branch count),
 * and wide batch-128 values spread over 100+ distinct values, as
 * Tutel-MoE's expert loads and DPSNet's kept patches produce.
 */
TEST(FreqHistogram, MatchesMapReferenceBitForBit)
{
    struct Domain
    {
        std::int64_t lo, hi;
        int adds;
        std::size_t minDistinct;
    };
    Rng rng(77);
    for (const Domain &d :
         {Domain{0, 2, 300, 3}, Domain{0, 4, 300, 5},
          Domain{200, 6272, 500, 100}, Domain{0, 3136, 400, 100}}) {
        for (int trial = 0; trial < 20; ++trial) {
            FreqHistogram flat[2];
            MapHistogram ref[2];
            for (int i = 0; i < d.adds; ++i) {
                const int side = rng.bernoulli(0.5) ? 1 : 0;
                const std::int64_t v = rng.uniformInt(d.lo, d.hi);
                const auto w = static_cast<std::uint64_t>(
                    rng.bernoulli(0.2) ? rng.uniformInt(0, 5) : 1);
                flat[side].add(v, w);
                ref[side].add(v, w);
                if (rng.bernoulli(0.02)) {
                    flat[0].merge(flat[1]);
                    ref[0].merge(ref[1]);
                }
                if (i < d.adds / 4 && rng.bernoulli(0.004)) {
                    flat[1].reset();
                    ref[1] = MapHistogram{};
                }
            }
            for (int side = 0; side < 2; ++side) {
                const FreqHistogram &h = flat[side];
                const MapHistogram &m = ref[side];
                ASSERT_EQ(h.sorted(),
                          (std::vector<FreqHistogram::Entry>(
                              m.counts.begin(), m.counts.end())));
                EXPECT_GE(h.distinct(), d.minDistinct);
                EXPECT_EQ(h.total(), m.total);
                for (std::int64_t v = d.lo - 1; v <= d.hi + 1; ++v) {
                    const auto it = m.counts.find(v);
                    ASSERT_EQ(h.count(v),
                              it == m.counts.end() ? 0u : it->second);
                }
                EXPECT_EQ(h.expectation(), m.expectation());
                EXPECT_EQ(h.variance(), m.variance());
                for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9,
                                 0.99, 1.0})
                    EXPECT_EQ(h.quantile(q), m.quantile(q)) << q;
                EXPECT_EQ(h.minValue(), m.counts.begin()->first);
                EXPECT_EQ(h.maxValue(), m.counts.rbegin()->first);
            }
            for (int buckets : {0, 8})
                EXPECT_EQ(distributionL1(flat[0], flat[1], buckets),
                          mapDistributionL1(ref[0], ref[1], buckets));
        }
    }
}

TEST(Geomean, KnownValue)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_EQ(geomean({}), 0.0);
}

// ---------------------------------------------------------- TextTable

TEST(TextTable, AlignsColumns)
{
    TextTable t("Demo");
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    const std::string s = t.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    // Both value cells start at the same column.
    std::istringstream is(s);
    std::string line;
    std::size_t col1 = 0, col2 = 0;
    while (std::getline(is, line)) {
        if (line.rfind("a ", 0) == 0)
            col1 = line.find('1');
        if (line.rfind("longer", 0) == 0)
            col2 = line.find("22");
    }
    EXPECT_EQ(col1, col2);
}

TEST(TextTable, Formatters)
{
    EXPECT_EQ(TextTable::num(1.234, 2), "1.23");
    EXPECT_EQ(TextTable::mult(1.7, 2), "1.70x");
    EXPECT_EQ(TextTable::pct(0.873, 1), "87.3%");
    // 71 integer digits, the point and 2 decimals: nothing is cut.
    const std::string huge = TextTable::num(1e70, 2);
    EXPECT_EQ(huge.size(), 74u);
    EXPECT_EQ(huge.substr(0, 8), "10000000");
    EXPECT_EQ(huge.substr(71), ".00");
}

// ------------------------------------------------------------ CliArgs

TEST(CliArgs, ParsesAllForms)
{
    const char *argv[] = {"prog", "pos1", "--batches", "200",
                          "--seed=7", "--x", "1.5", "--verbose"};
    CliArgs args(8, argv);
    EXPECT_EQ(args.getInt("batches", 0), 200);
    EXPECT_EQ(args.getInt("seed", 0), 7);
    EXPECT_TRUE(args.getBool("verbose", false));
    EXPECT_DOUBLE_EQ(args.getDouble("x", 0.0), 1.5);
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "pos1");
    EXPECT_EQ(args.getString("missing", "dflt"), "dflt");
    EXPECT_FALSE(args.has("missing"));
}

TEST(CliArgs, BooleanExplicitValues)
{
    const char *argv[] = {"prog", "--a=true", "--b=false", "--c=0"};
    CliArgs args(4, argv);
    EXPECT_TRUE(args.getBool("a", false));
    EXPECT_FALSE(args.getBool("b", true));
    EXPECT_FALSE(args.getBool("c", true));
}

// ---------------------------------------------------------- percentile

TEST(Percentile, InterpolatesBetweenOrderStatistics)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
    // Unsorted input is sorted internally.
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0 / 3.0), 2.0);
}

// ------------------------------------------------------ distributionL1

TEST(DistributionL1, IdenticalZeroDisjointTwo)
{
    FreqHistogram a, b;
    for (int i = 0; i < 10; ++i) {
        a.add(i % 3);
        b.add(i % 3);
    }
    EXPECT_DOUBLE_EQ(distributionL1(a, b), 0.0);

    FreqHistogram c;
    c.add(100, 10);
    EXPECT_DOUBLE_EQ(distributionL1(a, c, /*buckets=*/8), 2.0);
    // One empty side: nothing comparable.
    EXPECT_DOUBLE_EQ(distributionL1(a, FreqHistogram{}), 0.0);
}

TEST(DistributionL1, NormalizedSoCountsDoNotMatter)
{
    // Same shape at 10x the mass: zero distance.
    FreqHistogram a, b;
    a.add(1, 3);
    a.add(2, 1);
    b.add(1, 30);
    b.add(2, 10);
    EXPECT_DOUBLE_EQ(distributionL1(a, b), 0.0);
    // Half the mass moved: distance 1.
    FreqHistogram c;
    c.add(1, 1);
    c.add(2, 3);
    EXPECT_NEAR(distributionL1(a, c), 1.0, 1e-12);
}

} // namespace

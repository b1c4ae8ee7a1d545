/**
 * @file
 * Unit tests for the multi-kernel sampling algorithms (Section VII,
 * Algorithms 1 and 2): frequency redistribution conservation,
 * punishment/saving move selection, convergence, and the bucketing
 * of raw value histograms onto kernel sets. Also the offline profile
 * every run starts from, bit for bit against test-side copies of the
 * hand-written profiles it replaced, and System's first schedule
 * against it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "arch/profiler.hh"
#include "baselines/designs.hh"
#include "common/rng.hh"
#include "core/sampling.hh"
#include "core/scheduler.hh"
#include "graph/parser.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "probe_expectations.hh"
#include "trace/trace.hh"

namespace {

using namespace adyna;
using namespace adyna::core;

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

// ------------------------------------------- redistributeFrequencies

TEST(Redistribute, ConservesTotalMass)
{
    const std::vector<std::int64_t> vals{10, 20, 30, 40};
    const std::vector<double> freq{5, 10, 15, 20};
    const std::vector<std::int64_t> newVals{10, 25, 40};
    const auto out = redistributeFrequencies(vals, freq, newVals);
    ASSERT_EQ(out.size(), newVals.size());
    EXPECT_NEAR(sum(out), sum(freq), 1e-9);
}

TEST(Redistribute, IdentityWhenSetsMatch)
{
    const std::vector<std::int64_t> vals{10, 20, 30};
    const std::vector<double> freq{1, 2, 3};
    const auto out = redistributeFrequencies(vals, freq, vals);
    for (std::size_t i = 0; i < vals.size(); ++i)
        EXPECT_NEAR(out[i], freq[i], 1e-9);
}

TEST(Redistribute, UniformSplitInsideRange)
{
    // Mass 8 on range (10, 20]; a new sample at 15 takes half.
    const std::vector<std::int64_t> vals{10, 20};
    const std::vector<double> freq{4, 8};
    const std::vector<std::int64_t> newVals{10, 15, 20};
    const auto out = redistributeFrequencies(vals, freq, newVals);
    EXPECT_NEAR(out[0], 4.0, 1e-9);
    EXPECT_NEAR(out[1], 4.0, 1e-9);
    EXPECT_NEAR(out[2], 4.0, 1e-9);
}

TEST(Redistribute, MassBelowSmallestGoesToFirst)
{
    const std::vector<std::int64_t> vals{5, 20};
    const std::vector<double> freq{7, 1};
    const std::vector<std::int64_t> newVals{10, 20};
    const auto out = redistributeFrequencies(vals, freq, newVals);
    // The (0,5] mass is served by the 10-kernel.
    EXPECT_NEAR(out[0], 7.0 + 1.0 * (10.0 - 5.0) / 15.0, 1e-9);
    EXPECT_NEAR(sum(out), 8.0, 1e-9);
}

TEST(Redistribute, EmptyRangeMassFallsUpward)
{
    // No new sample inside (10, 20]: its mass must not vanish.
    const std::vector<std::int64_t> vals{10, 20, 40};
    const std::vector<double> freq{1, 6, 1};
    const std::vector<std::int64_t> newVals{10, 40};
    const auto out = redistributeFrequencies(vals, freq, newVals);
    EXPECT_NEAR(sum(out), 8.0, 1e-9);
    EXPECT_NEAR(out[1], 7.0, 1e-9); // 6 from (10,20] + 1 own
}

/**
 * Algorithm 2 as first written: every old range rescans the whole new
 * value set. The library walks the new values once; it must add each
 * share in this loop's order, so every output double is equal.
 */
std::vector<double>
redistributeByRescan(const std::vector<std::int64_t> &vals,
                     const std::vector<double> &freq,
                     const std::vector<std::int64_t> &new_vals)
{
    std::vector<double> newFreq(new_vals.size(), 0.0);
    for (std::size_t pos = 0; pos < vals.size(); ++pos) {
        const double f = freq[pos];
        if (f <= 0.0)
            continue;
        const std::int64_t ub = vals[pos];
        if (ub < new_vals.front()) {
            newFreq.front() += f;
            continue;
        }
        const std::int64_t lb = pos == 0 ? 0 : vals[pos - 1];
        std::int64_t pv = lb;
        double assigned = 0.0;
        bool any = false;
        for (std::size_t p = 0; p < new_vals.size(); ++p) {
            const std::int64_t v = new_vals[p];
            if (v <= lb || v > ub)
                continue;
            const double share = f * static_cast<double>(v - pv) /
                                 static_cast<double>(ub - lb);
            newFreq[p] += share;
            assigned += share;
            pv = v;
            any = true;
        }
        const double rest = f - assigned;
        if (rest > 0.0 || !any) {
            const auto it =
                std::lower_bound(new_vals.begin(), new_vals.end(), ub);
            const std::size_t idx =
                it == new_vals.end()
                    ? new_vals.size() - 1
                    : static_cast<std::size_t>(it - new_vals.begin());
            newFreq[idx] += any ? rest : f;
        }
    }
    return newFreq;
}

TEST(Redistribute, OneWalkMatchesPerRangeRescanBitForBit)
{
    struct Case
    {
        std::vector<std::int64_t> vals;
        std::vector<double> freq;
        std::vector<std::int64_t> newVals;
    };
    std::vector<Case> cases = {
        // Zero frequencies between live ranges.
        {{10, 20, 30, 40}, {0.0, 3.3, 0.0, 1.7}, {15, 25, 40}},
        // Ranges holding no new value.
        {{10, 20, 30, 40, 80}, {1.1, 2.2, 3.3, 4.4, 5.5}, {10, 80}},
        // Old values below the first new value.
        {{1, 2, 3, 50}, {0.7, 0.9, 1.3, 2.9}, {7, 9, 50}},
        // Overflow past the last new value.
        {{10, 60, 90, 120}, {2.5, 1.5, 0.5, 3.5}, {5, 20, 45}},
    };
    // Random sorted sets, duplicates allowed, over narrow and wide
    // value spans.
    Rng rng(2025);
    const auto sortedSet = [&](std::int64_t n, std::int64_t hi) {
        std::vector<std::int64_t> v;
        for (std::int64_t i = 0; i < n; ++i)
            v.push_back(rng.uniformInt(0, hi));
        std::sort(v.begin(), v.end());
        return v;
    };
    for (int trial = 0; trial < 3000; ++trial) {
        const std::int64_t hi = trial % 2 == 0 ? 24 : 6000;
        Case c;
        c.vals = sortedSet(rng.uniformInt(1, 12), hi);
        c.newVals = sortedSet(rng.uniformInt(1, 12), hi);
        for (std::size_t i = 0; i < c.vals.size(); ++i)
            c.freq.push_back(rng.bernoulli(0.25)
                                 ? 0.0
                                 : rng.uniform(0.0, 100.0));
        cases.push_back(std::move(c));
    }
    for (const Case &c : cases)
        EXPECT_EQ(redistributeFrequencies(c.vals, c.freq, c.newVals),
                  redistributeByRescan(c.vals, c.freq, c.newVals));
}

// ------------------------------------------------- resampleKernelValues

TEST(Resample, MovesSamplesTowardMass)
{
    // All the mass sits in (30, 40]; sparse elsewhere.
    std::vector<std::int64_t> vals{10, 20, 30, 40};
    std::vector<double> freq{0.0, 0.0, 0.0, 100.0};
    const auto out = resampleKernelValues(vals, freq, 8);
    // The max value is always kept.
    EXPECT_EQ(out.back(), 40);
    // At least one new sample inside (30, 40).
    bool inside = false;
    for (std::int64_t v : out)
        inside |= v > 30 && v < 40;
    EXPECT_TRUE(inside);
    // Sorted and unique.
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_LT(out[i - 1], out[i]);
}

TEST(Resample, KeepsSizeConstant)
{
    std::vector<std::int64_t> vals{8, 16, 24, 32, 40};
    std::vector<double> freq{1, 1, 50, 1, 1};
    const auto out = resampleKernelValues(vals, freq, 16);
    EXPECT_EQ(out.size(), vals.size());
}

TEST(Resample, UniformDistributionIsStable)
{
    // Already-balanced samples: no move should be profitable enough
    // to run away; output stays a valid sorted cover of the range.
    std::vector<std::int64_t> vals{32, 64, 96, 128};
    std::vector<double> freq{25, 25, 25, 25};
    const auto out = resampleKernelValues(vals, freq, 16);
    EXPECT_EQ(out.back(), 128);
    EXPECT_GE(out.size(), 3u);
}

TEST(Resample, TinySetsPassThrough)
{
    std::vector<std::int64_t> vals{64, 128};
    std::vector<double> freq{1, 1};
    EXPECT_EQ(resampleKernelValues(vals, freq, 4), vals);
}

TEST(Resample, NeverRemovesMaxValue)
{
    std::vector<std::int64_t> vals{10, 64, 128};
    std::vector<double> freq{100, 100, 0}; // max has no mass
    const auto out = resampleKernelValues(vals, freq, 8);
    EXPECT_EQ(out.back(), 128);
}

TEST(Resample, ReducesExpectedMismatchOnSkewedLoad)
{
    // Quantitative check of the objective: expected (v_k - v) loss
    // under the true distribution must not increase.
    const std::int64_t maxV = 1024;
    std::vector<std::int64_t> vals;
    for (int i = 1; i <= 8; ++i)
        vals.push_back(maxV * i / 8);
    // True distribution: concentrated around 600.
    auto massAt = [](std::int64_t v) {
        return v >= 550 && v <= 650 ? 1.0 : 0.0;
    };
    auto loss = [&](const std::vector<std::int64_t> &ks) {
        double total = 0.0;
        for (std::int64_t v = 1; v <= maxV; ++v) {
            const auto it =
                std::lower_bound(ks.begin(), ks.end(), v);
            total += massAt(v) * static_cast<double>(*it - v);
        }
        return total;
    };
    std::vector<double> freq(vals.size(), 0.0);
    for (std::int64_t v = 1; v <= maxV; ++v) {
        const auto it = std::lower_bound(vals.begin(), vals.end(), v);
        freq[static_cast<std::size_t>(it - vals.begin())] += massAt(v);
    }
    const auto out = resampleKernelValues(vals, freq, 16);
    EXPECT_LE(loss(out), loss(vals));
    EXPECT_LT(loss(out), 0.8 * loss(vals)); // strictly better here
}

// ------------------------------------------------- bucketFrequencies

TEST(Bucket, MapsValuesToCoveringKernel)
{
    FreqHistogram h;
    h.add(5, 3);   // -> kernel 10
    h.add(10, 2);  // -> kernel 10
    h.add(11, 4);  // -> kernel 20
    h.add(99, 1);  // above max -> kernel 20
    const auto freq = bucketFrequencies(h, {10, 20});
    ASSERT_EQ(freq.size(), 2u);
    EXPECT_DOUBLE_EQ(freq[0], 5.0);
    EXPECT_DOUBLE_EQ(freq[1], 5.0);
}

TEST(Bucket, EmptyInputs)
{
    FreqHistogram h;
    EXPECT_TRUE(bucketFrequencies(h, {}).empty());
    const auto freq = bucketFrequencies(h, {10});
    ASSERT_EQ(freq.size(), 1u);
    EXPECT_DOUBLE_EQ(freq[0], 0.0);
}

// --------------------------------------------------- offline profile

using KernelValues = std::map<OpId, std::vector<std::int64_t>>;

/** The salt System, the serving back-end, search_sweep and
 * TraceGenerator::profileExpectations each XORed into the run seed
 * for their probe stream, before core::probeSeed derived it once. */
constexpr std::uint64_t kProbeSalt = 0x517cc1b727220a95ULL;

/** Schedule inputs an offline profile produced. */
struct Inputs
{
    std::map<OpId, double> expectations;
    KernelValues kernelValues;
};

/**
 * Test-side copy of System::run's offline block before the shared
 * profile: per-op sums of the dyn values, expectations as sum /
 * batches, then Algorithm 1 on every kernel-value set against the
 * bucketed table, whatever the design's kernels.
 */
Inputs
systemBlockReference(const graph::DynGraph &dg, int batches,
                     const RoutingSource &next, KernelValues kernel_values,
                     arch::Profiler &profiler)
{
    Inputs in;
    in.kernelValues = std::move(kernel_values);
    std::map<OpId, double> sums;
    for (int b = 0; b < batches; ++b) {
        const trace::BatchRouting routing = next(b);
        profiler.noteBatch();
        for (const auto &[sw, oc] : routing.outcomes)
            profiler.recordBranchLoads(sw, oc.branchCounts);
        for (OpId op : dg.dynamicOps()) {
            const auto v = routing.dynValue(dg, op);
            profiler.recordValue(op, v);
            sums[op] += static_cast<double>(v);
        }
    }
    for (auto &[op, sum] : sums)
        in.expectations[op] = sum / batches;
    for (auto &[op, values] : in.kernelValues) {
        const auto freq = bucketFrequencies(profiler.table(op), values);
        values = resampleKernelValues(values, freq,
                                      static_cast<int>(values.size()));
    }
    profiler.resetTables();
    return in;
}

/** Test-side copy of TraceGenerator::profileExpectations: per-op
 * sums over the probe stream, each divided by the batch count. */
std::map<OpId, double>
profileExpectationsReference(const graph::DynGraph &dg,
                             const trace::TraceConfig &cfg,
                             std::uint64_t seed, int batches)
{
    trace::TraceGenerator probe(dg, cfg, seed ^ kProbeSalt);
    std::map<OpId, double> sums;
    for (int b = 0; b < batches; ++b) {
        const trace::BatchRouting routing = probe.next();
        for (OpId op : dg.dynamicOps())
            sums[op] += static_cast<double>(routing.dynValue(dg, op));
    }
    for (auto &[op, sum] : sums)
        sum /= batches;
    return sums;
}

/** Both profilers hold the same branch-load history and no
 * frequency table. */
void
expectSameHistoryNoTables(const graph::DynGraph &dg,
                          const arch::Profiler &got,
                          const arch::Profiler &want)
{
    EXPECT_TRUE(got.trackedOps().empty());
    EXPECT_EQ(got.windowBatches(), 0u);
    for (const graph::SwitchInfo &sw : dg.switches()) {
        const arch::BranchHistory &g = got.branchHistory(sw.switchOp);
        const arch::BranchHistory &w = want.branchHistory(sw.switchOp);
        ASSERT_EQ(g.size(), w.size());
        for (std::size_t i = 0; i < g.size(); ++i)
            EXPECT_EQ(g[i], w[i]);
    }
}

/** A paper model at @p batch with its kernel values and trace. */
struct Model
{
    Model(const std::string &name, std::int64_t batch)
        : bundle(models::buildByName(name, batch)),
          dg(graph::parseModel(bundle.graph)), mapper(hw.tech),
          scheduler(dg, hw, mapper,
                    baselines::schedulerConfig(baselines::Design::Adyna))
    {
        trace = bundle.traceConfig;
        trace.batchSize = batch;
    }

    arch::HwConfig hw;
    models::ModelBundle bundle;
    graph::DynGraph dg;
    costmodel::Mapper mapper;
    Scheduler scheduler;
    trace::TraceConfig trace;
};

/** The shared profile on @p next against System's block on @p ref,
 * two sources of the same routings. Returns whether Algorithm 1
 * moved any kernel value. */
bool
expectProfileMatchesSystemBlock(const Model &m, int batches,
                                const RoutingSource &next,
                                const RoutingSource &ref)
{
    const KernelValues initial = m.scheduler.initialKernelValues();
    arch::Profiler prof;
    Inputs got;
    got.kernelValues = initial;
    profileOffline(prof, m.dg, batches, next, true, got.expectations,
                   got.kernelValues);

    arch::Profiler refProf;
    const Inputs want =
        systemBlockReference(m.dg, batches, ref, initial, refProf);
    EXPECT_EQ(got.expectations, want.expectations);
    EXPECT_EQ(got.kernelValues, want.kernelValues);
    EXPECT_FALSE(got.expectations.empty());
    expectSameHistoryNoTables(m.dg, prof, refProf);
    return got.kernelValues != initial;
}

TEST(OfflineProfile, MatchesSystemBlockOnEveryPaperModel)
{
    int resampled = 0;
    for (const std::string &name : models::workloadNames()) {
        for (std::int64_t batch : {1, 8, 128}) {
            SCOPED_TRACE(name + " at batch " + std::to_string(batch));
            const Model m(name, batch);
            trace::TraceGenerator probe(m.dg, m.trace, probeSeed(7));
            trace::TraceGenerator refProbe(m.dg, m.trace, 7 ^ kProbeSalt);
            resampled += expectProfileMatchesSystemBlock(
                m, 40, [&](int) { return probe.next(); },
                [&](int) { return refProbe.next(); });
        }
    }
    // Algorithm 1 moved values somewhere, so the kernel-value check
    // compares real samples, not the initial sets.
    EXPECT_GT(resampled, 0);
}

TEST(OfflineProfile, MatchesSystemBlockOnDriftingTrace)
{
    const Model m("tutel-moe", 32);
    trace::TraceConfig tc = m.trace;
    tc.driftStrength = 1.0;
    tc.driftPeriod = 6; // the profile crosses six phases
    trace::TraceGenerator probe(m.dg, tc, probeSeed(11));
    trace::TraceGenerator refProbe(m.dg, tc, 11 ^ kProbeSalt);
    EXPECT_TRUE(expectProfileMatchesSystemBlock(
        m, 40, [&](int) { return probe.next(); },
        [&](int) { return refProbe.next(); }));
}

TEST(OfflineProfile, MatchesSystemBlockOnWrappingReplay)
{
    const Model m("skipnet", 128);
    trace::TraceGenerator gen(m.dg, m.trace, 3);
    std::vector<trace::BatchRouting> replay;
    for (int b = 0; b < 7; ++b)
        replay.push_back(gen.next());
    const RoutingSource wrap = [&](int b) {
        return replay[static_cast<std::size_t>(b) % replay.size()];
    };
    EXPECT_TRUE(expectProfileMatchesSystemBlock(m, 40, wrap, wrap));
}

TEST(OfflineProfile, ExpectationsMatchProfileExpectationsCopy)
{
    for (const std::string &name : models::workloadNames()) {
        for (std::int64_t batch : {1, 8, 128}) {
            SCOPED_TRACE(name + " at batch " + std::to_string(batch));
            const Model m(name, batch);
            EXPECT_EQ(test::probeExpectations(m.dg, m.trace, 5, 60),
                      profileExpectationsReference(m.dg, m.trace, 5, 60));
        }
    }
    const Model m("pabee", 16);
    trace::TraceConfig tc = m.trace;
    tc.driftStrength = 1.0;
    tc.driftPeriod = 10;
    EXPECT_EQ(test::probeExpectations(m.dg, tc, 9, 60),
              profileExpectationsReference(m.dg, tc, 9, 60));
}

/**
 * System's first schedule is built from the shared profile with the
 * initial kernel sample, for every design: a Scheduler fed System's
 * block (test-side copy) over the same routings compiles nothing the
 * run's store cache does not already hold. Covers an exact-kernel
 * design (full-kernel), whose initial sample must run although it
 * never re-samples, and a replay shorter than the profile, which
 * wraps. One period, so the run builds exactly once.
 */
TEST(OfflineProfile, SystemFirstScheduleUsesSharedProfile)
{
    const arch::HwConfig hw;
    const models::ModelBundle bundle = models::buildSkipNet(128);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);
    trace::TraceGenerator gen(dg, bundle.traceConfig, 4);
    std::vector<trace::BatchRouting> replay;
    for (int b = 0; b < 6; ++b)
        replay.push_back(gen.next());

    constexpr int kBatches = 4;
    for (baselines::Design design :
         {baselines::Design::Adyna, baselines::Design::FullKernel}) {
        for (bool replayed : {false, true}) {
            SCOPED_TRACE(std::string(baselines::designName(design)) +
                         (replayed ? ", replayed" : ", probe stream"));
            kernels::KernelStoreCache stores;
            core::System sys = baselines::makeSystem(
                dg, bundle.traceConfig, hw, design, kBatches, 21);
            sys.setSharedStoreCache(&stores);
            if (replayed)
                sys.setReplay(replay);
            const core::RunReport rep = sys.run();
            ASSERT_EQ(rep.reconfigurations, 0);

            costmodel::Mapper mapper(hw.tech);
            Scheduler sched(dg, hw, mapper,
                            baselines::schedulerConfig(design));
            sched.setStoreCache(&stores);
            const int profileBatches =
                baselines::runOptions(design, kBatches, 21).profileBatches;
            ASSERT_GT(profileBatches, static_cast<int>(replay.size()));
            trace::TraceGenerator refProbe(dg, bundle.traceConfig,
                                           21 ^ kProbeSalt);
            arch::Profiler refProf;
            const KernelValues initial = sched.initialKernelValues();
            const Inputs want = systemBlockReference(
                dg, profileBatches,
                [&](int b) {
                    return replayed ? replay[static_cast<std::size_t>(b) %
                                             replay.size()]
                                    : refProbe.next();
                },
                initial, refProf);
            ASSERT_NE(want.kernelValues, initial);

            const std::uint64_t misses0 = stores.misses();
            const std::uint64_t hits0 = stores.hits();
            sched.build(want.expectations, want.kernelValues, &refProf);
            EXPECT_EQ(stores.misses(), misses0);
            EXPECT_GT(stores.hits(), hits0);
        }
    }
}

} // namespace

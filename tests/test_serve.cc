/**
 * @file
 * Unit tests for the online serving runtime: arrival-process
 * determinism and rate calibration, batcher max-batch / max-wait
 * invariants and routing merges, SLO accounting, drift-monitor
 * hysteresis and noise-floor behaviour, and end-to-end ServeRuntime
 * determinism (the stationary adaptive run must match the static
 * run exactly; back-to-back runs without a shared store cache must
 * match each other).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "baselines/designs.hh"
#include "core/sampling.hh"
#include "graph/parser.hh"
#include "json_check.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "serve/arrival.hh"
#include "serve/batcher.hh"
#include "serve/drift.hh"
#include "serve/server.hh"
#include "serve/slo.hh"
#include "serve/tenant.hh"
#include "serve/validate.hh"
#include "serve_fixtures.hh"
#include "trace/trace.hh"

namespace {

using namespace adyna;
using namespace adyna::serve;

// ------------------------------------------------------ ArrivalProcess

TEST(Arrival, PoissonDeterministicForSameSeed)
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 1e6;
    ArrivalProcess a(cfg, 1.0, 7), b(cfg, 1.0, 7), c(cfg, 1.0, 8);
    bool anyDiffer = false;
    for (int i = 0; i < 500; ++i) {
        const Tick ta = a.next();
        EXPECT_EQ(ta, b.next());
        anyDiffer |= ta != c.next();
    }
    EXPECT_TRUE(anyDiffer) << "seed must matter";
    EXPECT_EQ(a.generated(), 500u);
}

TEST(Arrival, PoissonMonotoneAndMeanRate)
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 1e6; // 1000 ticks mean gap at 1 GHz
    ArrivalProcess p(cfg, 1.0, 42);
    const int n = 20000;
    Tick prev = 0, last = 0;
    for (int i = 0; i < n; ++i) {
        const Tick t = p.next();
        EXPECT_GE(t, prev);
        prev = t;
        last = t;
    }
    const double meanGap = static_cast<double>(last) / n;
    EXPECT_NEAR(meanGap, 1000.0, 30.0); // 3% tolerance
}

TEST(Arrival, BurstyKeepsLongRunMeanRateButBursts)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Bursty;
    cfg.ratePerSec = 1e6;
    // Short dwells so the horizon covers ~100 burst/normal cycles
    // (the long-run mean only shows over many state switches).
    cfg.burstDwellSec = 5e-4;
    const int n = 400000;

    ArrivalProcess bursty(cfg, 1.0, 3);
    std::vector<double> gaps;
    Tick prev = 0, lastB = 0;
    for (int i = 0; i < n; ++i) {
        const Tick t = bursty.next();
        gaps.push_back(static_cast<double>(t - prev));
        prev = t;
        lastB = t;
    }
    // Long-run mean rate within 10% of the configured one.
    EXPECT_NEAR(static_cast<double>(lastB) / n, 1000.0, 100.0);

    // Burstiness: the inter-arrival coefficient of variation must
    // exceed the exponential's CV of 1 (MMPP-2 is over-dispersed).
    const double mean =
        std::accumulate(gaps.begin(), gaps.end(), 0.0) / n;
    double var = 0.0;
    for (double g : gaps)
        var += (g - mean) * (g - mean);
    var /= n;
    EXPECT_GT(std::sqrt(var) / mean, 1.1);
}

TEST(Arrival, TraceRoundTripAndReplayWrap)
{
    const std::vector<double> ts = {0.001, 0.002, 0.004};
    const std::string path =
        ::testing::TempDir() + "/adyna_arrivals.txt";
    saveArrivalTrace(path, ts);
    EXPECT_EQ(loadArrivalTrace(path), ts);

    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Replay;
    cfg.traceFile = path;
    ArrivalProcess p(cfg, 1.0, 1);
    // Timestamps are re-based so the first arrival is at t = 0.
    EXPECT_EQ(p.next(), Tick{0});
    EXPECT_EQ(p.next(), Tick{1000000});
    EXPECT_EQ(p.next(), Tick{3000000});
    // Wrap: shifted by span (3 ms) + one mean gap (1.5 ms).
    EXPECT_EQ(p.next(), Tick{4500000});
    EXPECT_EQ(p.next(), Tick{5500000});
    std::remove(path.c_str());
}

// ------------------------------------------------------------- Batcher

trace::BatchRouting
requestDraw(const graph::DynGraph &dg, trace::TraceConfig tc,
            std::uint64_t seed, int skip = 0)
{
    tc.batchSize = 1;
    tc.driftStrength = 0.0;
    trace::TraceGenerator gen(dg, tc, seed);
    for (int i = 0; i < skip; ++i)
        (void)gen.next();
    return gen.next();
}

TEST(Batcher, EmptyQueueNeverForms)
{
    Batcher b(BatchPolicy{4, 100});
    EXPECT_EQ(b.nextFormTick(), Batcher::kNever);
    EXPECT_EQ(b.queued(), 0u);
}

TEST(Batcher, FullBatchFormsOnLastArrival)
{
    Batcher b(BatchPolicy{3, 1000});
    b.enqueue({0, 10, {}});
    EXPECT_EQ(b.nextFormTick(), Tick{1010}); // oldest + maxWait
    b.enqueue({1, 20, {}});
    b.enqueue({2, 30, {}});
    // Queue reached maxBatch: formable at the third arrival.
    EXPECT_EQ(b.nextFormTick(), Tick{30});
}

TEST(Batcher, FormTakesOldestFifoAndLeavesRest)
{
    Batcher b(BatchPolicy{2, 1000});
    for (std::uint64_t i = 0; i < 5; ++i)
        b.enqueue({i, static_cast<Tick>(10 * (i + 1)), {}});
    FormedBatch f = b.form(b.nextFormTick());
    ASSERT_EQ(f.requests.size(), 2u);
    EXPECT_EQ(f.requests[0].id, 0u);
    EXPECT_EQ(f.requests[1].id, 1u);
    EXPECT_EQ(f.formedAt, Tick{20});
    EXPECT_EQ(b.queued(), 3u);
    // Admitting more can only move the form tick earlier, never later.
    const Tick before = b.nextFormTick();
    b.enqueue({9, 60, {}});
    EXPECT_LE(b.nextFormTick(), before);
}

TEST(Batcher, PartialBatchFormsAtMaxWait)
{
    Batcher b(BatchPolicy{8, 500});
    b.enqueue({0, 100, {}});
    b.enqueue({1, 140, {}});
    EXPECT_EQ(b.nextFormTick(), Tick{600});
    FormedBatch f = b.form(600);
    EXPECT_EQ(f.requests.size(), 2u);
    EXPECT_EQ(b.queued(), 0u);
    EXPECT_EQ(b.nextFormTick(), Batcher::kNever);
}

TEST(Batcher, CancelRemovesQueuedRequestById)
{
    Batcher b(BatchPolicy{8, 500});
    b.enqueue({0, 100, {}});
    b.enqueue({1, 140, {}});
    b.enqueue({2, 180, {}});

    // Cancelling a queued id (a hedge loser) removes exactly it.
    EXPECT_TRUE(b.cancel(1));
    EXPECT_EQ(b.queued(), 2u);
    EXPECT_FALSE(b.cancel(1)); // already gone
    EXPECT_FALSE(b.cancel(99)); // never enqueued
    EXPECT_EQ(b.queued(), 2u);

    FormedBatch f = b.form(b.nextFormTick());
    ASSERT_EQ(f.requests.size(), 2u);
    EXPECT_EQ(f.requests[0].id, 0u);
    EXPECT_EQ(f.requests[1].id, 2u);

    // Cancelling the head recomputes the form tick from the new
    // oldest arrival.
    b.enqueue({3, 1000, {}});
    b.enqueue({4, 1300, {}});
    EXPECT_EQ(b.nextFormTick(), Tick{1500});
    EXPECT_TRUE(b.cancel(3));
    EXPECT_EQ(b.nextFormTick(), Tick{1800});
}

TEST(Batcher, MergedRoutingSumsPerRequestDraws)
{
    models::ModelBundle bundle = models::buildByName("skipnet", 4);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);

    Batcher b(BatchPolicy{3, 1000});
    std::vector<trace::BatchRouting> draws;
    for (int i = 0; i < 3; ++i) {
        draws.push_back(
            requestDraw(dg, bundle.traceConfig, 11, /*skip=*/i));
        b.enqueue({static_cast<std::uint64_t>(i),
                   static_cast<Tick>(i), draws.back()});
    }
    FormedBatch f = b.form(b.nextFormTick());

    for (const auto &[op, merged] : f.routing.outcomes) {
        std::int64_t before = 0, after = 0;
        std::vector<std::int64_t> counts(merged.branchCounts.size(),
                                         0);
        for (const trace::BatchRouting &d : draws) {
            const trace::SwitchOutcome &o = d.outcome(op);
            before += o.activeBefore;
            after += o.activeAfter;
            ASSERT_EQ(o.branchCounts.size(), counts.size());
            for (std::size_t k = 0; k < counts.size(); ++k)
                counts[k] += o.branchCounts[k];
        }
        EXPECT_EQ(merged.activeBefore, before);
        EXPECT_EQ(merged.activeAfter, after);
        EXPECT_EQ(merged.branchCounts, counts);
    }
}

TEST(Batcher, IndependentTenantBatchersNeverMixRequests)
{
    // The multi-tenant runtime keeps one Batcher per tenant;
    // interleaved arrivals must stay in their own tenant's queue,
    // and each tenant's merged routing must equal the merge of only
    // its own draws.
    models::ModelBundle bundle = models::buildByName("skipnet", 4);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);

    Batcher ba(BatchPolicy{2, 1000});
    Batcher bb(BatchPolicy{2, 1000});
    std::vector<trace::BatchRouting> drawsA, drawsB;
    // Tenant A gets even ids / even draw indices, B the odd ones, in
    // one interleaved arrival order.
    for (int i = 0; i < 4; ++i) {
        Batcher &b = (i % 2 == 0) ? ba : bb;
        auto &draws = (i % 2 == 0) ? drawsA : drawsB;
        draws.push_back(
            requestDraw(dg, bundle.traceConfig, 23, /*skip=*/i));
        b.enqueue({static_cast<std::uint64_t>(i),
                   static_cast<Tick>(10 * i), draws.back()});
    }
    ASSERT_EQ(ba.queued(), 2u);
    ASSERT_EQ(bb.queued(), 2u);

    const FormedBatch fa = ba.form(ba.nextFormTick());
    const FormedBatch fb = bb.form(bb.nextFormTick());
    ASSERT_EQ(fa.requests.size(), 2u);
    ASSERT_EQ(fb.requests.size(), 2u);
    EXPECT_EQ(fa.requests[0].id, 0u);
    EXPECT_EQ(fa.requests[1].id, 2u);
    EXPECT_EQ(fb.requests[0].id, 1u);
    EXPECT_EQ(fb.requests[1].id, 3u);
    EXPECT_EQ(ba.queued(), 0u);
    EXPECT_EQ(bb.queued(), 0u);

    const auto checkMerge = [](const FormedBatch &f,
                               const std::vector<trace::BatchRouting>
                                   &draws) {
        for (const auto &[op, merged] : f.routing.outcomes) {
            std::int64_t before = 0, after = 0;
            for (const trace::BatchRouting &d : draws) {
                before += d.outcome(op).activeBefore;
                after += d.outcome(op).activeAfter;
            }
            EXPECT_EQ(merged.activeBefore, before);
            EXPECT_EQ(merged.activeAfter, after);
        }
    };
    checkMerge(fa, drawsA);
    checkMerge(fb, drawsB);
}

// ---------------------------------------------------------- SloTracker

TEST(Slo, LatencyAccountingAndGoodput)
{
    // 1 GHz: 1e6 ticks per millisecond.
    SloTracker slo(SloConfig{2.0}, 1.0);
    EXPECT_DOUBLE_EQ(slo.sloAttainment(), 1.0);

    slo.record(0, 500000, 1000000);       // 1 ms, met
    slo.record(1000000, 1500000, 2500000); // 1.5 ms, met
    slo.record(2000000, 4000000, 6000000); // 4 ms, missed
    EXPECT_EQ(slo.completed(), 3u);
    EXPECT_EQ(slo.met(), 2u);
    EXPECT_NEAR(slo.sloAttainment(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(slo.meanLatencyMs(), (1.0 + 1.5 + 4.0) / 3, 1e-9);
    EXPECT_NEAR(slo.maxLatencyMs(), 4.0, 1e-9);
    EXPECT_NEAR(slo.meanQueueMs(), (0.5 + 0.5 + 2.0) / 3, 1e-9);
    EXPECT_EQ(slo.lastEnd(), Tick{6000000});
    EXPECT_NEAR(slo.latencyPercentileMs(0.5), 1.5, 1e-9);
    EXPECT_NEAR(slo.latencyPercentileMs(1.0), 4.0, 1e-9);
    // 2 met requests over a 6 ms horizon.
    EXPECT_NEAR(slo.goodputRps(6000000), 2.0 / 6e-3, 1e-6);
}

TEST(Slo, PerTenantTrackersSplitPercentilesAndGoodput)
{
    // One tracker per tenant (the multi-tenant layout): a
    // latency-critical tenant with a tight deadline and a
    // best-effort tenant with a loose one, interleaved in arrival
    // order as one co-scheduled run would record them. Each
    // tenant's percentiles and goodput must be computed from its
    // own samples alone.
    SloTracker lc(SloConfig{1.0}, 1.0); // 1 ms deadline
    SloTracker be(SloConfig{8.0}, 1.0); // 8 ms deadline

    // LC latencies: 0.4, 0.6, 2.0 ms (third misses its deadline).
    // BE latencies: 5, 6, 7 ms (all met despite being slower).
    lc.record(0, 100000, 400000);
    be.record(0, 3000000, 5000000);
    lc.record(1000000, 1200000, 1600000);
    be.record(1000000, 5000000, 7000000);
    lc.record(2000000, 3500000, 4000000);
    be.record(2000000, 8000000, 9000000);

    EXPECT_EQ(lc.completed(), 3u);
    EXPECT_EQ(be.completed(), 3u);
    EXPECT_EQ(lc.met(), 2u);
    EXPECT_EQ(be.met(), 3u);
    // p50 is each tenant's own middle sample; the fast tenant's
    // tail is not dragged up by the slow tenant's samples.
    EXPECT_NEAR(lc.latencyPercentileMs(0.5), 0.6, 1e-9);
    EXPECT_NEAR(be.latencyPercentileMs(0.5), 6.0, 1e-9);
    // Interpolated tail percentiles over [0.6, 2.0] and [6, 7].
    EXPECT_NEAR(lc.latencyPercentileMs(0.95), 0.6 + 1.4 * 0.9, 1e-9);
    EXPECT_NEAR(be.latencyPercentileMs(0.95), 6.0 + 1.0 * 0.9, 1e-9);
    EXPECT_NEAR(lc.latencyPercentileMs(0.99), 0.6 + 1.4 * 0.98,
                1e-9);
    EXPECT_NEAR(be.latencyPercentileMs(0.99), 6.0 + 1.0 * 0.98,
                1e-9);
    // Goodput over a shared 9 ms horizon splits per tenant: 2 vs 3
    // met requests, and the aggregate is their sum.
    EXPECT_NEAR(lc.goodputRps(9000000), 2.0 / 9e-3, 1e-6);
    EXPECT_NEAR(be.goodputRps(9000000), 3.0 / 9e-3, 1e-6);
    EXPECT_NEAR(lc.goodputRps(9000000) + be.goodputRps(9000000),
                5.0 / 9e-3, 1e-6);
}

TEST(Slo, EmptyTenantTrackerEdges)
{
    // A tenant that never completes anything (all shed, or zero
    // offered load) must report neutral metrics, not NaNs.
    SloTracker slo(SloConfig{2.0}, 1.0);
    EXPECT_EQ(slo.completed(), 0u);
    EXPECT_EQ(slo.met(), 0u);
    EXPECT_DOUBLE_EQ(slo.sloAttainment(), 1.0);
    EXPECT_DOUBLE_EQ(slo.latencyPercentileMs(0.5), 0.0);
    EXPECT_DOUBLE_EQ(slo.latencyPercentileMs(0.99), 0.0);
    EXPECT_DOUBLE_EQ(slo.goodputRps(0), 0.0);
    EXPECT_DOUBLE_EQ(slo.goodputRps(1000000), 0.0);
    EXPECT_EQ(slo.lastEnd(), Tick{0});
}

TEST(Slo, SingleSamplePercentilesCollapse)
{
    SloTracker slo(SloConfig{2.0}, 1.0);
    slo.record(0, 500000, 1500000); // 1.5 ms, met
    for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_NEAR(slo.latencyPercentileMs(q), 1.5, 1e-12)
            << "q=" << q;
    EXPECT_DOUBLE_EQ(slo.sloAttainment(), 1.0);
    EXPECT_NEAR(slo.goodputRps(1500000), 1.0 / 1.5e-3, 1e-6);
}

// -------------------------------------------------------- DriftMonitor

arch::Profiler
profilerWith(OpId op, std::uint64_t seed, int n, double shift)
{
    arch::Profiler prof;
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        prof.recordValue(
            op, static_cast<std::int64_t>(40 + 20 * u + shift));
        prof.noteBatch();
    }
    return prof;
}

TEST(Drift, StationaryWindowsNeverTrigger)
{
    DriftConfig cfg;
    cfg.hysteresisWindows = 2;
    cfg.cooldownWindows = 0;
    DriftMonitor mon(cfg);
    mon.setReference(
        profilerWith(1, 100, 4000, 0.0).tablesSnapshot());
    // Same-distribution probe pair calibrates the noise floor.
    mon.setNoiseFloor(mon.distanceTo(profilerWith(1, 101, 500, 0.0)));

    for (std::uint64_t s = 0; s < 30; ++s) {
        arch::Profiler window = profilerWith(1, 200 + s, 500, 0.0);
        EXPECT_FALSE(mon.observe(window)) << "window " << s;
    }
    EXPECT_EQ(mon.windowsObserved(), 30);
}

TEST(Drift, ShiftTriggersOnlyAfterHysteresis)
{
    DriftConfig cfg;
    cfg.hysteresisWindows = 2;
    cfg.cooldownWindows = 0;
    DriftMonitor mon(cfg);
    mon.setReference(
        profilerWith(1, 100, 4000, 0.0).tablesSnapshot());

    arch::Profiler shifted = profilerWith(1, 7, 500, 35.0);
    EXPECT_GT(mon.distanceTo(shifted), mon.effectiveThreshold());
    EXPECT_FALSE(mon.observe(shifted)); // 1st hot window: streak only
    EXPECT_EQ(mon.hotStreak(), 1);
    EXPECT_TRUE(mon.observe(shifted)); // 2nd consecutive: trigger
}

TEST(Drift, CooldownSuppressesRetrigger)
{
    DriftConfig cfg;
    cfg.hysteresisWindows = 1;
    cfg.cooldownWindows = 2;
    DriftMonitor mon(cfg);
    mon.setReference(
        profilerWith(1, 100, 4000, 0.0).tablesSnapshot());

    arch::Profiler shifted = profilerWith(1, 7, 500, 35.0);
    // setReference starts the cooldown: two windows are swallowed.
    EXPECT_FALSE(mon.observe(shifted));
    EXPECT_FALSE(mon.observe(shifted));
    EXPECT_TRUE(mon.observe(shifted));
}

TEST(Drift, MeanShiftBeyondBucketResolutionIsCaught)
{
    // A pure scale change: same histogram shape, every value doubled.
    arch::Profiler ref;
    arch::Profiler cur;
    for (int i = 0; i < 1000; ++i) {
        ref.recordValue(1, 10 + (i % 4));
        cur.recordValue(1, 20 + 2 * (i % 4));
    }
    DriftMonitor mon(DriftConfig{});
    mon.setReference(ref.tablesSnapshot());
    // The expectation roughly doubles -> relative shift near 1.
    EXPECT_GT(mon.distanceTo(cur), 0.9);
}

/** A profiler and the map-keyed tables earlier versions kept, fed
 * the same records. */
struct MirroredProfiler
{
    arch::Profiler flat;
    std::map<OpId, FreqHistogram> tables;

    void record(OpId op, std::int64_t value)
    {
        flat.recordValue(op, value);
        tables[op].add(value);
    }

    void resetTables()
    {
        flat.resetTables();
        tables.clear();
    }
};

/** DriftMonitor::distanceTo over map-keyed tables, as first written:
 * both walks in ascending op id. */
double
mapDistance(const std::map<OpId, FreqHistogram> &reference,
            const std::map<OpId, FreqHistogram> &current)
{
    double worst = 0.0;
    int compared = 0;
    double refSum = 0.0;
    double curSum = 0.0;
    for (const auto &[op, ref] : reference) {
        if (ref.empty())
            continue;
        const auto it = current.find(op);
        if (it == current.end() || it->second.empty())
            continue;
        worst = std::max(worst, distributionL1(ref, it->second, 8));
        ++compared;
    }
    for (const auto &[op, ref] : reference) {
        if (ref.empty())
            continue;
        const auto it = current.find(op);
        if (it == current.end() || it->second.empty())
            continue;
        refSum += ref.expectation();
        curSum += it->second.expectation();
    }
    const double shape = compared == 0 ? 0.0 : worst;
    const double scale =
        refSum <= 0.0
            ? 0.0
            : std::min(std::abs(curSum - refSum) / refSum, 2.0);
    return std::max(shape, scale);
}

/** core::refreshScheduleInputs over map-keyed tables, as first
 * written. */
void
mapRefresh(const std::map<OpId, FreqHistogram> &tables,
           std::map<OpId, double> &expectations,
           std::map<OpId, std::vector<std::int64_t>> &kernel_values)
{
    std::map<OpId, double> newExp;
    for (const auto &[op, table] : tables)
        if (!table.empty())
            newExp[op] = table.expectation();
    if (!newExp.empty())
        expectations = std::move(newExp);
    for (auto &[op, values] : kernel_values) {
        const auto it = tables.find(op);
        if (it == tables.end() || it->second.empty())
            continue;
        const auto freq = core::bucketFrequencies(it->second, values);
        values = core::resampleKernelValues(
            values, freq, static_cast<int>(values.size()));
    }
}

/**
 * One window of a random request stream over a @p ops-op graph: with
 * probability @p tail a request is hard and every tracked op sees a
 * large tail value on top of its base value (an early exit's deep
 * path, say); the load series at id @p ops, one past the graph,
 * records the request's sum. A shift of @p tail moves the means far
 * more than the bucketed shapes, so the expectation sums decide the
 * distance.
 */
void
recordWindow(MirroredProfiler &prof, Rng &rng,
             const std::vector<OpId> &tracked, OpId ops, int requests,
             double tail)
{
    for (int r = 0; r < requests; ++r) {
        const bool hard = rng.bernoulli(tail);
        std::int64_t total = 0;
        for (OpId op : tracked) {
            const std::int64_t base = 3 + op % 7;
            const std::int64_t v =
                base + rng.uniformInt(0, 2) + (hard ? 9 * base : 0);
            prof.record(op, v);
            total += v;
        }
        prof.record(ops, total);
        prof.flat.noteBatch();
    }
}

/**
 * The drift monitor and the schedule-input refresh read flat per-op
 * tables; their sums must run in the order the map-keyed code summed
 * in (ascending op id, the load series last), so every distance,
 * expectation and resampled kernel set is bit-identical. Random
 * op subsets, tail shifts and kernel-value sets, with the load
 * series in every profiler.
 */
TEST(Drift, FlatTablesMatchMapKeyedCodeBitForBit)
{
    Rng rng(4242);
    int scaleWins = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const OpId ops = static_cast<OpId>(rng.uniformInt(4, 40));
        std::vector<OpId> tracked;
        for (OpId op = 0; op < ops; ++op)
            if (rng.bernoulli(0.7))
                tracked.push_back(op);
        const double tail = rng.uniform(0.02, 0.3);
        const double drifted = tail * rng.uniform(0.5, 2.0);

        MirroredProfiler ref, cur;
        recordWindow(ref, rng, tracked, ops, 400, tail);
        recordWindow(cur, rng, tracked, ops, 400, drifted);
        if (trial % 10 == 9)
            cur.resetTables(); // a window with nothing to compare

        DriftMonitor mon(DriftConfig{});
        mon.setReference(ref.flat.tablesSnapshot());
        const double distance = mon.distanceTo(cur.flat);
        EXPECT_EQ(distance, mapDistance(ref.tables, cur.tables))
            << "trial " << trial;
        scaleWins += distance > cur.flat.driftL1(ref.flat.tablesSnapshot());

        // Schedule inputs: expectations of every tracked op and
        // kernel sets for a random subset of ids, the load series and
        // untracked ops included.
        std::map<OpId, double> exp{{0, 1.5}};
        std::map<OpId, std::vector<std::int64_t>> kernels;
        for (OpId op = 0; op <= ops; ++op) {
            if (!rng.bernoulli(0.5))
                continue;
            std::vector<std::int64_t> values;
            for (std::int64_t v = rng.uniformInt(1, 4);
                 v <= (op == ops ? 80 * ops : 60);
                 v += rng.uniformInt(1, op == ops ? 6 * ops : 6))
                values.push_back(v);
            kernels[op] = values;
        }
        auto mapExp = exp;
        auto mapKernels = kernels;
        core::refreshScheduleInputs(cur.flat, true, exp, kernels);
        mapRefresh(cur.tables, mapExp, mapKernels);
        EXPECT_EQ(exp, mapExp) << "trial " << trial;
        EXPECT_EQ(kernels, mapKernels) << "trial " << trial;
    }
    // The expectation sums decide the distance in a share of trials,
    // so a reordered sum shows.
    EXPECT_GT(scaleWins, 10);
}

TEST(Drift, EffectiveThresholdTracksNoiseFloor)
{
    DriftConfig cfg;
    cfg.threshold = 0.15;
    cfg.noiseMultiplier = 2.5;
    DriftMonitor mon(cfg);
    EXPECT_DOUBLE_EQ(mon.effectiveThreshold(), 0.15);
    mon.setNoiseFloor(0.02); // below the absolute floor
    EXPECT_DOUBLE_EQ(mon.effectiveThreshold(), 0.15);
    mon.setNoiseFloor(0.2); // noisy workload raises the bar
    EXPECT_DOUBLE_EQ(mon.effectiveThreshold(), 0.5);
}

// -------------------------------------------------------- ServeRuntime

ServeReport
smokeServe(bool adaptive, double drift_strength, std::uint64_t seed)
{
    models::ModelBundle bundle = models::buildByName("skipnet", 8);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 8;
    tc.driftStrength = drift_strength;
    tc.driftPeriod = 40;

    const arch::HwConfig hw;
    ServeConfig sc;
    sc.arrival.ratePerSec = 5e5;
    sc.batching.maxBatch = 8;
    sc.batching.maxWaitCycles = 20000;
    sc.slo.deadlineMs = 1.0;
    sc.drift.windowRequests = 64;
    sc.driftReschedule = adaptive;
    sc.numRequests = 300;
    sc.profileBatches = 8;
    sc.seed = seed;

    ServeRuntime rt(
        dg, tc, hw,
        baselines::schedulerConfig(baselines::Design::Adyna),
        baselines::execPolicy(baselines::Design::Adyna), sc,
        "skipnet");
    // A run-private store cache: the reported JSON includes cache
    // counters, which would otherwise depend on how warm the
    // process-global cache is from earlier runs.
    kernels::KernelStoreCache stores;
    rt.setSharedStoreCache(&stores);
    return rt.run();
}

TEST(ServeRuntime, DeterministicForSameConfig)
{
    const ServeReport a = smokeServe(true, 0.0, 5);
    const ServeReport b = smokeServe(true, 0.0, 5);
    EXPECT_EQ(toJson(a), toJson(b));
    EXPECT_EQ(a.requests, 300u);
    EXPECT_GT(a.batches, 0u);
    EXPECT_GT(a.p50Ms, 0.0);
    EXPECT_LE(a.p50Ms, a.p95Ms);
    EXPECT_LE(a.p95Ms, a.p99Ms);
    EXPECT_LE(a.p99Ms, a.maxMs);
    EXPECT_GE(a.sloAttainment, 0.0);
    EXPECT_LE(a.sloAttainment, 1.0);
}

TEST(ServeRuntime, StationaryAdaptiveMatchesStaticExactly)
{
    const ServeReport adaptive = smokeServe(true, 0.0, 9);
    const ServeReport fixed = smokeServe(false, 0.0, 9);
    // No drift -> the monitor must stay quiet and the adaptive run
    // must follow the identical execution path.
    EXPECT_EQ(adaptive.reschedules, 0);
    EXPECT_EQ(adaptive.mode, "adaptive");
    EXPECT_EQ(fixed.mode, "static");
    EXPECT_EQ(adaptive.batches, fixed.batches);
    EXPECT_DOUBLE_EQ(adaptive.p99Ms, fixed.p99Ms);
    EXPECT_DOUBLE_EQ(adaptive.goodputRps, fixed.goodputRps);
    EXPECT_EQ(adaptive.horizonTicks, fixed.horizonTicks);
}

// ------------------------------------------------- config validation
// Every rejected field must die with a message naming the field, so
// a misconfigured CLI run points straight at the bad knob.

using Validate = ::testing::Test;

TEST(Validate, RejectsNonPositiveArrivalRate)
{
    ArrivalConfig cfg;
    cfg.ratePerSec = 0.0;
    EXPECT_EXIT(validateArrivalConfig(cfg),
                ::testing::ExitedWithCode(1), "ratePerSec");
}

TEST(Validate, RejectsBurstMultiplierBelowOne)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Bursty;
    cfg.burstRateMultiplier = 0.5;
    EXPECT_EXIT(validateArrivalConfig(cfg),
                ::testing::ExitedWithCode(1), "burstRateMultiplier");
}

TEST(Validate, RejectsBurstFractionOutsideUnitInterval)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Bursty;
    cfg.burstFraction = 1.0;
    EXPECT_EXIT(validateArrivalConfig(cfg),
                ::testing::ExitedWithCode(1), "burstFraction");
}

TEST(Validate, RejectsNonPositiveBurstDwell)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Bursty;
    cfg.burstDwellSec = 0.0;
    EXPECT_EXIT(validateArrivalConfig(cfg),
                ::testing::ExitedWithCode(1), "burstDwellSec");
}

TEST(Validate, RejectsReplayWithoutTraceFile)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::Replay;
    EXPECT_EXIT(validateArrivalConfig(cfg),
                ::testing::ExitedWithCode(1), "traceFile");
}

TEST(Validate, RejectsZeroMaxBatch)
{
    BatchPolicy policy;
    policy.maxBatch = 0;
    EXPECT_EXIT(validateBatchPolicy(policy),
                ::testing::ExitedWithCode(1), "maxBatch");
}

TEST(Validate, RejectsNonPositiveDeadline)
{
    SloConfig cfg;
    cfg.deadlineMs = 0.0;
    EXPECT_EXIT(validateSloConfig(cfg),
                ::testing::ExitedWithCode(1), "deadlineMs");
}

TEST(Validate, RejectsNonPositiveDriftWindow)
{
    DriftConfig cfg;
    cfg.windowRequests = 0;
    EXPECT_EXIT(validateDriftConfig(cfg),
                ::testing::ExitedWithCode(1), "windowRequests");
}

TEST(Validate, RejectsNegativeDriftThreshold)
{
    DriftConfig cfg;
    cfg.threshold = -0.1;
    EXPECT_EXIT(validateDriftConfig(cfg),
                ::testing::ExitedWithCode(1), "threshold");
}

TEST(Validate, RejectsNegativeNoiseMultiplier)
{
    DriftConfig cfg;
    cfg.noiseMultiplier = -1.0;
    EXPECT_EXIT(validateDriftConfig(cfg),
                ::testing::ExitedWithCode(1), "noiseMultiplier");
}

TEST(Validate, RejectsNoiseMultiplierBelowOne)
{
    DriftConfig cfg;
    cfg.noiseMultiplier = 0.5;
    EXPECT_EXIT(validateDriftConfig(cfg),
                ::testing::ExitedWithCode(1), "noiseMultiplier");
}

TEST(Validate, RejectsDriftThresholdAboveTwo)
{
    DriftConfig cfg;
    cfg.threshold = 2.5;
    EXPECT_EXIT(validateDriftConfig(cfg),
                ::testing::ExitedWithCode(1), "threshold");
}

TEST(Validate, RejectsZeroHysteresisWindows)
{
    DriftConfig cfg;
    cfg.hysteresisWindows = 0;
    EXPECT_EXIT(validateDriftConfig(cfg),
                ::testing::ExitedWithCode(1), "hysteresisWindows");
}

TEST(Validate, RejectsNegativeCooldownWindows)
{
    DriftConfig cfg;
    cfg.cooldownWindows = -1;
    EXPECT_EXIT(validateDriftConfig(cfg),
                ::testing::ExitedWithCode(1), "cooldownWindows");
}

TEST(Validate, RejectsNonPositiveNumRequests)
{
    ServeConfig cfg;
    cfg.numRequests = 0;
    EXPECT_EXIT(validateServeConfig(cfg),
                ::testing::ExitedWithCode(1), "numRequests");
}

TEST(Validate, RejectsNegativeProfileBatches)
{
    ServeConfig cfg;
    cfg.profileBatches = -1;
    EXPECT_EXIT(validateServeConfig(cfg),
                ::testing::ExitedWithCode(1), "profileBatches");
}

TEST(Validate, AcceptsDefaultsAndBurstyDefaults)
{
    validateServeConfig(ServeConfig{});
    ArrivalConfig bursty;
    bursty.kind = ArrivalKind::Bursty;
    validateArrivalConfig(bursty);
}

} // namespace

// -------------------------------------------- delta re-scheduling

namespace {

/** Serve @p sc on the drifting PABEE workload of
 * test::searchServeConfig. */
ServeReport
pabeeServe(const ServeConfig &sc)
{
    models::ModelBundle bundle = models::buildByName("pabee", 8);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);
    ServeRuntime rt(
        dg, test::searchDriftTrace(bundle.traceConfig), arch::HwConfig{},
        baselines::schedulerConfig(baselines::Design::Adyna),
        baselines::execPolicy(baselines::Design::Adyna), sc, "pabee");
    kernels::KernelStoreCache stores;
    rt.setSharedStoreCache(&stores);
    return rt.run();
}

/** The drifting PABEE run (multi-segment, so delta re-schedules can
 * actually splice) with the delta path on or off. */
ServeReport
driftServe(bool delta_reschedule, std::uint64_t seed)
{
    ServeConfig sc = test::searchServeConfig(false, 0, seed);
    sc.deltaReschedule = delta_reschedule;
    return pabeeServe(sc);
}

} // namespace

TEST(ServeRuntime, DeltaRescheduleCountsSplicedSegments)
{
    const ServeReport r = driftServe(true, 11);
    ASSERT_GT(r.reschedules, 0) << "drift must trigger";
    EXPECT_GT(r.deltaReschedules, 0);
    EXPECT_LE(r.deltaReschedules, r.reschedules);
    // Every delta re-schedule accounts each segment as either
    // spliced or rebuilt.
    EXPECT_GT(r.segmentsRebuilt + r.segmentsSpliced, 0u);
    EXPECT_GT(r.segmentsSpliced, 0u)
        << "multi-segment drift should splice the untouched segments";
}

TEST(ServeRuntime, DeltaOffNeverSplices)
{
    const ServeReport r = driftServe(false, 11);
    ASSERT_GT(r.reschedules, 0);
    EXPECT_EQ(r.deltaReschedules, 0);
    EXPECT_EQ(r.segmentsRebuilt, 0u);
    EXPECT_EQ(r.segmentsSpliced, 0u);
}

TEST(ServeRuntime, DeltaPathTracksFullRebuildServing)
{
    // The delta path may keep sub-tolerance stores the full rebuild
    // would refresh, so the runs need not be bit-identical -- but
    // the serving outcome must stay equivalent: same requests, same
    // batches, and drift triggering at the same windows.
    const ServeReport on = driftServe(true, 11);
    const ServeReport off = driftServe(false, 11);
    EXPECT_EQ(on.requests, off.requests);
    EXPECT_EQ(on.batches, off.batches);
    EXPECT_EQ(on.reschedules, off.reschedules);
    EXPECT_GT(on.goodputRps, 0.0);
    EXPECT_GT(off.goodputRps, 0.0);
}

namespace {

/** The driftServe workload with the anytime schedule search on the
 * drift path and an optional watchdog budget. */
ServeReport
searchServe(bool search_on, Cycles watchdog_budget,
            std::uint64_t seed)
{
    return pabeeServe(
        test::searchServeConfig(search_on, watchdog_budget, seed));
}

} // namespace

TEST(ServeRuntime, SearchStaysInsideWatchdogBudget)
{
    // Generous budget: the heuristic rebuild fits and the search
    // gets the leftover. The serve-side guarantee under test is the
    // ISSUE's acceptance bound -- no drift re-schedule (rebuild +
    // search spend) may ever exceed the watchdog budget.
    const Cycles budget = 40'000'000;
    const ServeReport r = searchServe(true, budget, 11);
    ASSERT_GT(r.reschedules, 0) << "drift must trigger";
    EXPECT_TRUE(r.searchActive);
    EXPECT_GT(r.search.candidatesTried, 0u);
    EXPECT_LE(r.maxRescheduleCycles, budget);
    EXPECT_LE(r.search.budgetSpentCycles, budget);
    EXPECT_EQ(r.requests, 2400u);
}

TEST(ServeRuntime, RebuildThatSpendsTheBudgetGetsNoSearch)
{
    // B is the run's largest heuristic rebuild cost. At budget B that
    // rebuild leaves the search 0 cycles, which must not read as an
    // unbounded search budget; B - 1 sends it to the watchdog and
    // B + 1 leaves less than one probe evaluation.
    const Cycles b = searchServe(false, 0, 11).maxRescheduleCycles;
    ASSERT_GT(b, core::kReconfigOverheadCycles);
    for (const Cycles budget : {b - 1, b, b + 1}) {
        const ServeReport r = searchServe(true, budget, 11);
        EXPECT_EQ(r.requests, 2400u) << "budget " << budget;
        EXPECT_LE(r.maxRescheduleCycles, budget) << "budget " << budget;
        if (budget == b) {
            EXPECT_GT(r.search.budgetExhausted, 0u);
        }
    }
}

TEST(ServeRuntime, SearchOffKeepsReportBytes)
{
    // Search-off runs must serialize the pre-search report exactly:
    // no search keys at all, and deterministically so.
    const ServeReport off = searchServe(false, 0, 11);
    const std::string offJson = toJson(off);
    EXPECT_EQ(offJson.find("search_"), std::string::npos);
    EXPECT_FALSE(off.searchActive);
    EXPECT_EQ(off.search.candidatesTried, 0u);

    const ServeReport on = searchServe(true, 0, 11);
    const std::string onJson = toJson(on);
    EXPECT_NE(onJson.find("search_reschedules"), std::string::npos);
    EXPECT_NE(onJson.find("search_budget_spent"),
              std::string::npos);
    EXPECT_EQ(on.requests, off.requests);
}

TEST(ServeRuntime, SearchRunIsDeterministic)
{
    const ServeReport a = searchServe(true, 40'000'000, 13);
    const ServeReport b = searchServe(true, 40'000'000, 13);
    EXPECT_EQ(toJson(a), toJson(b));
}

TEST(ServeRuntime, BackToBackRunsWithoutSharedCacheMatch)
{
    // Without setSharedStoreCache each run compiles into a store
    // cache of its own. A rebuild's modeled cost reads the cache's
    // miss delta, so a cache warmed by an earlier run in the process
    // would change what the watchdog decides, not just the counters.
    models::ModelBundle bundle = models::buildByName("skipnet", 8);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 8;
    tc.driftStrength = 0.9;
    tc.driftPeriod = 40;

    const arch::HwConfig hw;
    ServeConfig sc;
    sc.arrival.ratePerSec = 5e5;
    sc.batching.maxBatch = 8;
    sc.batching.maxWaitCycles = 20000;
    sc.slo.deadlineMs = 1.0;
    sc.drift.windowRequests = 64;
    sc.numRequests = 1200;
    sc.profileBatches = 8;
    sc.seed = 11;
    sc.rescheduleBudgetCycles = 15000;

    const auto serveOnce = [&] {
        ServeRuntime rt(
            dg, tc, hw,
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna), sc,
            "skipnet");
        return rt.run();
    };
    const ServeReport first = serveOnce();
    const ServeReport second = serveOnce();
    ASSERT_GT(first.reschedules + first.watchdogFallbacks, 0)
        << "drift must trigger";
    EXPECT_GT(first.storeMisses, 0u);
    EXPECT_EQ(toJson(first), toJson(second));
}

// A tenant list the multi-tenant validator accepts; each rejection
// test below breaks exactly one field of a copy.
static std::vector<TenantSpec>
validTenants()
{
    std::vector<TenantSpec> tenants(2);
    tenants[0].id = "lc";
    tenants[0].cls = SloClass::LatencyCritical;
    tenants[0].serve.arrival.ratePerSec = 1e5;
    tenants[1].id = "be";
    tenants[1].cls = SloClass::BestEffort;
    tenants[1].serve.arrival.ratePerSec = 5e4;
    return tenants;
}

TEST(Validate, AcceptsWellFormedTenantList)
{
    validateTenantSpecs(validTenants()); // must not die
}

TEST(Validate, RejectsEmptyTenantList)
{
    EXPECT_EXIT(validateTenantSpecs({}),
                ::testing::ExitedWithCode(1), "at least one");
}

TEST(Validate, RejectsEmptyTenantId)
{
    auto tenants = validTenants();
    tenants[1].id.clear();
    EXPECT_EXIT(validateTenantSpecs(tenants),
                ::testing::ExitedWithCode(1), "must be non-empty");
}

TEST(Validate, RejectsDuplicateTenantIds)
{
    auto tenants = validTenants();
    tenants[1].id = tenants[0].id;
    EXPECT_EXIT(validateTenantSpecs(tenants),
                ::testing::ExitedWithCode(1), "duplicate tenant id");
}

TEST(Validate, RejectsNonPositiveTenantRate)
{
    auto tenants = validTenants();
    tenants[0].serve.arrival.ratePerSec = 0.0;
    EXPECT_EXIT(validateTenantSpecs(tenants),
                ::testing::ExitedWithCode(1), "ratePerSec");
}

TEST(Validate, RejectsNegativeTenantLoadWeight)
{
    auto tenants = validTenants();
    tenants[1].loadWeight = -0.5;
    EXPECT_EXIT(validateTenantSpecs(tenants),
                ::testing::ExitedWithCode(1), "loadWeight");
}

TEST(Validate, RejectsPerTenantFaultPlan)
{
    auto tenants = validTenants();
    tenants[0].serve.faultPlan.events.emplace_back();
    EXPECT_EXIT(validateTenantSpecs(tenants),
                ::testing::ExitedWithCode(1),
                "per-tenant fault plans");
}

/** Free-form names are escaped and no field is lost to a fixed
 * buffer: a quote, a backslash and a 4000-character workload name
 * all leave a report that parses, with every optional block. */
TEST(ServeJson, EscapesNamesAndKeepsEveryField)
{
    serve::ServeReport r;
    r.mode = "adaptive";
    r.faultActive = true;
    r.searchActive = true;
    const std::string longName(4000, 'w');
    const std::pair<std::string, std::string> names[] = {
        {"my \"model\" v2", "my \\\"model\\\" v2"},
        {"dir\\model", "dir\\\\model"},
        {longName, longName}};
    for (const auto &[name, escaped] : names) {
        r.workload = name;
        const std::string json = serve::toJson(r);
        EXPECT_TRUE(test::isValidJson(json)) << json.substr(0, 80);
        EXPECT_NE(json.find("{\"workload\": \"" + escaped +
                            "\", \"mode\": \"adaptive\""),
                  std::string::npos);
        EXPECT_NE(json.find("\"unroutable_paths\": 0, "),
                  std::string::npos);
        EXPECT_TRUE(json.ends_with("\"search_improved_last\": false}"));
    }
}

/**
 * @file
 * Unit and property tests for the dynamism trace generator:
 * determinism, conservation laws per routing policy, marginal
 * calibration, difficulty correlation across gates, and drift.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "crossed_switches.hh"
#include "graph/parser.hh"
#include "graph/transforms.hh"
#include "models/models.hh"
#include "probe_expectations.hh"
#include "trace/trace.hh"

namespace {

using namespace adyna;
using namespace adyna::graph;
using namespace adyna::trace;

DynGraph
earlyExitModel(std::int64_t batch, double f0, double f1)
{
    Graph g("ee");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 64, 64));
    OpId l0 = g.addMatMul("l0", in, 64, 64);
    OpId sw0 = addEarlyExit(g, "g0", l0, 2, f0, 0);
    OpId l1 = buildBranch(g, sw0, 1, [](Graph &gg, OpId s) {
        return gg.addMatMul("l1", s, 64, 64);
    });
    OpId sw1 = addEarlyExit(g, "g1", l1, 2, f1, 1);
    OpId l2 = buildBranch(g, sw1, 1, [](Graph &gg, OpId s) {
        return gg.addMatMul("l2", s, 64, 64);
    });
    g.addOutput("out", l2);
    return parseModel(g);
}

DynGraph
skipModel(std::int64_t batch, double skip)
{
    Graph g("skip");
    OpId in = g.addInput("in", LoopDims::conv(batch, 16, 16, 8, 8, 1, 1));
    OpId merge = addLayerSkip(g, "b0", in, skip, 0, [](Graph &gg, OpId s) {
        return gg.addConv("b0.conv", s,
                          LoopDims::conv(64, 16, 16, 8, 8, 3, 3));
    });
    g.addOutput("out", merge);
    return parseModel(g);
}

DynGraph
moeModel(std::int64_t batch, int experts, int topk,
         std::vector<double> bias = {})
{
    Graph g("moe");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 128, 128));
    OpId t = g.addMatMul("proj", in, 128, 128);
    OpId merge = addMoE(g, "moe", t, experts, topk, bias,
                        [](Graph &gg, OpId s) {
                            return gg.addMatMul("ffn", s, 128, 128);
                        });
    g.addOutput("out", merge);
    return parseModel(g);
}

TraceConfig
stationary(std::int64_t batch)
{
    TraceConfig cfg;
    cfg.batchSize = batch;
    cfg.driftStrength = 0.0;
    return cfg;
}

TEST(Trace, DeterministicForSameSeed)
{
    const DynGraph dg = earlyExitModel(64, 0.3, 0.3);
    TraceGenerator a(dg, stationary(64), 99);
    TraceGenerator b(dg, stationary(64), 99);
    for (int i = 0; i < 20; ++i) {
        const BatchRouting ra = a.next();
        const BatchRouting rb = b.next();
        for (const auto &[sw, oc] : ra.outcomes) {
            const auto &ocb = rb.outcome(sw);
            EXPECT_EQ(oc.branchCounts, ocb.branchCounts);
            EXPECT_EQ(oc.activeAfter, ocb.activeAfter);
        }
    }
}

TEST(Trace, EarlyExitConservation)
{
    const DynGraph dg = earlyExitModel(128, 0.3, 0.3);
    TraceGenerator gen(dg, stationary(128), 1);
    for (int i = 0; i < 50; ++i) {
        const BatchRouting r = gen.next();
        ASSERT_EQ(r.outcomes.size(), 2u);
        std::int64_t prevAfter = 128;
        for (const SwitchInfo &sw : dg.switches()) {
            const SwitchOutcome &oc = r.outcome(sw.switchOp);
            // Exits + continues = arrivals; arrivals = upstream after.
            EXPECT_EQ(oc.branchCounts[0] + oc.branchCounts[1],
                      oc.activeBefore);
            EXPECT_EQ(oc.activeBefore, prevAfter);
            EXPECT_EQ(oc.activeAfter, oc.branchCounts[1]);
            prevAfter = oc.activeAfter;
        }
    }
}

TEST(Trace, EarlyExitMarginalCalibrated)
{
    const DynGraph dg = earlyExitModel(128, 0.25, 0.25);
    TraceGenerator gen(dg, stationary(128), 5);
    double exits0 = 0, exits1 = 0;
    const int batches = 400;
    for (int i = 0; i < batches; ++i) {
        const BatchRouting r = gen.next();
        exits0 += static_cast<double>(
            r.outcome(dg.switches()[0].switchOp).branchCounts[0]);
        exits1 += static_cast<double>(
            r.outcome(dg.switches()[1].switchOp).branchCounts[0]);
    }
    // Both gates remove ~25% of the *original* batch.
    EXPECT_NEAR(exits0 / batches / 128.0, 0.25, 0.02);
    EXPECT_NEAR(exits1 / batches / 128.0, 0.25, 0.02);
}

TEST(Trace, LayerSkipConservesBatch)
{
    const DynGraph dg = skipModel(64, 0.4);
    TraceGenerator gen(dg, stationary(64), 2);
    double skipped = 0;
    const int batches = 300;
    for (int i = 0; i < batches; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcome(dg.switches()[0].switchOp);
        EXPECT_EQ(oc.branchCounts[0] + oc.branchCounts[1], 64);
        EXPECT_EQ(oc.activeAfter, 64);
        skipped += static_cast<double>(oc.branchCounts[0]);
    }
    EXPECT_NEAR(skipped / batches / 64.0, 0.4, 0.03);
}

TEST(Trace, MoETopKCountsSumToKTimesBatch)
{
    const DynGraph dg = moeModel(128, 8, 2);
    TraceGenerator gen(dg, stationary(128), 3);
    for (int i = 0; i < 20; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcome(dg.switches()[0].switchOp);
        std::int64_t total = 0;
        for (std::int64_t c : oc.branchCounts)
            total += c;
        EXPECT_EQ(total, 2 * 128);
        EXPECT_EQ(oc.activeAfter, 128);
    }
}

TEST(Trace, MoEBiasSkewsExpertLoad)
{
    const DynGraph dg =
        moeModel(128, 4, 1, {8.0, 1.0, 1.0, 1.0});
    TraceGenerator gen(dg, stationary(128), 4);
    std::vector<double> load(4, 0.0);
    for (int i = 0; i < 200; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcome(dg.switches()[0].switchOp);
        for (int e = 0; e < 4; ++e)
            load[static_cast<std::size_t>(e)] +=
                static_cast<double>(oc.branchCounts[e]);
    }
    EXPECT_GT(load[0], 3.0 * load[1]);
}

TEST(Trace, ChannelBlocksEverySampleKeepsAtLeastOne)
{
    Graph g("fbs");
    OpId in = g.addInput("in", LoopDims::conv(32, 64, 64, 14, 14, 1, 1));
    OpId merge = addChannelPrunedConv(
        g, "cp", in, LoopDims::conv(32, 64, 64, 14, 14, 3, 3), 1, 8,
        0.4, 0);
    g.addOutput("out", merge);
    const DynGraph dg = parseModel(g);

    TraceGenerator gen(dg, stationary(32), 6);
    double totalBlocks = 0;
    const int batches = 200;
    for (int i = 0; i < batches; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcome(dg.switches()[0].switchOp);
        std::int64_t sum = 0;
        for (std::int64_t c : oc.branchCounts) {
            EXPECT_LE(c, 32);
            sum += c;
        }
        EXPECT_GE(sum, 32);      // at least one block per sample
        EXPECT_LE(sum, 32 * 8);  // at most all blocks
        totalBlocks += static_cast<double>(sum);
        // Zipf popularity: first block must dominate the last.
        EXPECT_GE(oc.branchCounts[0], oc.branchCounts[7]);
    }
    // Mean keep fraction near the configured 0.4.
    EXPECT_NEAR(totalBlocks / batches / 32.0 / 8.0, 0.4, 0.06);
}

TEST(Trace, PatchSelectRowsConserved)
{
    const std::int64_t batch = 16, fold = 64;
    Graph g("dps");
    OpId in =
        g.addInput("in", LoopDims::matmul(batch * fold, 192, 192));
    OpId emb = g.addMatMul("embed", in, 192, 192);
    OpId sw = addPatchSelect(g, "sel", emb, 0.3, 0);
    OpId body = buildBranch(g, sw, 0, [](Graph &gg, OpId s) {
        return gg.addMatMul("blk", s, 192, 192);
    });
    g.addUnfoldMerge("agg", {body}, LoopDims::matmul(batch, 192, 192));
    const DynGraph dg = parseModel(g);

    TraceConfig cfg = stationary(batch);
    TraceGenerator gen(dg, cfg, 8);
    double kept = 0;
    const int batches = 300;
    for (int i = 0; i < batches; ++i) {
        const BatchRouting r = gen.next();
        const SwitchOutcome &oc =
            r.outcome(dg.switches()[0].switchOp);
        EXPECT_EQ(oc.branchCounts[0] + oc.branchCounts[1],
                  batch * fold);
        EXPECT_GE(oc.branchCounts[0], batch); // >= 1 patch per image
        kept += static_cast<double>(oc.branchCounts[0]);
    }
    EXPECT_NEAR(kept / batches / (batch * fold), 0.3, 0.05);
}

TEST(Trace, DynValueMatchesOutcomes)
{
    const DynGraph dg = earlyExitModel(64, 0.3, 0.2);
    TraceGenerator gen(dg, stationary(64), 10);
    const BatchRouting r = gen.next();
    for (const OpNode &n : dg.graph().nodes()) {
        if (n.name == "l1") {
            const auto &oc = r.outcome(dg.info(n.id).ownerSwitch);
            EXPECT_EQ(r.dynValue(dg, n.id), oc.branchCounts[1]);
        }
        if (n.name == "l0") {
            EXPECT_EQ(r.dynValue(dg, n.id), 64);
        }
    }
}

/**
 * A routing stores each outcome at its switch's slot (ascending
 * switch id), while the generator routes in switches() order, which
 * is topological. On the crossed model the two orders differ, so an
 * outcome stored in routing order would sit in a neighbour's slot and
 * dynValue would hand an op another switch's count.
 */
TEST(Trace, RoutingSlotsFollowSwitchIdsNotRoutingOrder)
{
    const DynGraph dg = test::crossedSwitchModel(8);
    std::vector<OpId> routed;
    for (const SwitchInfo &sw : dg.switches())
        routed.push_back(sw.switchOp);
    ASSERT_FALSE(std::is_sorted(routed.begin(), routed.end()));
    for (const SwitchInfo &sw : dg.switches())
        EXPECT_EQ(static_cast<std::ptrdiff_t>(sw.slot),
                  std::count_if(routed.begin(), routed.end(),
                                [&](OpId id) { return id < sw.switchOp; }));

    TraceGenerator gen(dg, stationary(8), 5);
    for (int b = 0; b < 50; ++b) {
        const BatchRouting r = gen.next();
        ASSERT_EQ(r.outcomes.size(), dg.switches().size());
        for (std::size_t i = 0; i + 1 < r.outcomes.size(); ++i)
            EXPECT_LT(r.outcomes[i].first, r.outcomes[i + 1].first);
        for (const SwitchInfo &sw : dg.switches()) {
            EXPECT_EQ(r.outcomes[sw.slot].first, sw.switchOp);
            EXPECT_EQ(r.outcomes[sw.slot].second.branchCounts.size(),
                      static_cast<std::size_t>(sw.numBranches()));
        }
        for (OpId op : dg.dynamicOps()) {
            const DynOpInfo &di = dg.info(op);
            const SwitchOutcome &own = r.outcome(di.ownerSwitch);
            EXPECT_EQ(r.dynValue(dg, op),
                      di.branch >= 0
                          ? own.branchCounts[static_cast<std::size_t>(
                                di.branch)]
                          : own.activeAfter)
                << "op " << op << " of switch " << di.ownerSwitch;
        }
    }
}

/** dynValue reads an op's switch slot only after checking that the
 * entry there is the op's own switch: a routing that lacks the switch,
 * or holds another switch in its slot, panics instead of returning a
 * neighbour's count. */
TEST(TraceDeathTest, DynValueWithoutItsOwnSwitchPanics)
{
    const DynGraph dg = test::crossedSwitchModel(8);
    TraceGenerator gen(dg, stationary(8), 5);
    for (const SwitchInfo &sw : dg.switches()) {
        const BatchRouting full = gen.next();
        BatchRouting missing = full;
        missing.outcomes.erase(missing.outcomes.begin() + sw.slot);
        BatchRouting swapped = full;
        std::swap(swapped.outcomes[sw.slot],
                  swapped.outcomes[(sw.slot + 1) %
                                   swapped.outcomes.size()]);
        for (OpId op : dg.dynamicOps()) {
            if (dg.info(op).ownerSwitch != sw.switchOp)
                continue;
            EXPECT_DEATH((void)missing.dynValue(dg, op),
                         "no routing outcome for switch");
            EXPECT_DEATH((void)swapped.dynValue(dg, op),
                         "no routing outcome for switch");
        }
    }
}

TEST(Trace, DifficultyCorrelationAcrossGates)
{
    // With two gates at the same marginal, survivors of gate 0 are
    // harder, so gate 1 exits (as a fraction of its arrivals) should
    // be *lower* than an uncorrelated generator would produce when
    // difficulty noise is small.
    TraceConfig cfg = stationary(256);
    cfg.gateNoise = 0.01;
    const DynGraph dg = earlyExitModel(256, 0.3, 0.1);
    TraceGenerator gen(dg, cfg, 11);
    double arrivals = 0, exits = 0;
    for (int i = 0; i < 200; ++i) {
        const BatchRouting r = gen.next();
        const auto &oc1 = r.outcome(dg.switches()[1].switchOp);
        arrivals += static_cast<double>(oc1.activeBefore);
        exits += static_cast<double>(oc1.branchCounts[0]);
    }
    // Marginal w.r.t. original batch is 0.1; relative to arrivals
    // (~0.7 of batch) it is ~0.143.
    EXPECT_NEAR(exits / arrivals, 0.1 / 0.7, 0.03);
}

TEST(Trace, DriftChangesPhaseMarginals)
{
    TraceConfig cfg;
    cfg.batchSize = 128;
    cfg.driftStrength = 1.0;
    cfg.driftPeriod = 50;
    const DynGraph dg = skipModel(128, 0.4);
    TraceGenerator gen(dg, cfg, 12);

    auto phaseMean = [&](int batches) {
        double sum = 0;
        for (int i = 0; i < batches; ++i) {
            const BatchRouting r = gen.next();
            sum += static_cast<double>(
                r.outcome(dg.switches()[0].switchOp)
                    .branchCounts[0]);
        }
        return sum / batches;
    };
    std::vector<double> means;
    for (int p = 0; p < 6; ++p)
        means.push_back(phaseMean(50));
    double lo = means[0], hi = means[0];
    for (double m : means) {
        lo = std::min(lo, m);
        hi = std::max(hi, m);
    }
    // Phases differ noticeably under full drift.
    EXPECT_GT(hi - lo, 3.0);
}

TEST(Trace, ProfileExpectationsMatchLongRunMean)
{
    const DynGraph dg = skipModel(128, 0.35);
    const auto exp =
        test::probeExpectations(dg, stationary(128), 22, 500);
    // Branch-1 (block) ops should see ~0.65 * 128 samples.
    for (const OpNode &n : dg.graph().nodes()) {
        if (n.name == "b0.conv") {
            ASSERT_TRUE(exp.count(n.id));
            EXPECT_NEAR(exp.at(n.id), 0.65 * 128.0, 4.0);
        }
    }
}

/** FNV-1a over the bytes of every branch count of @p calls batches. */
std::uint64_t
streamDigest(const DynGraph &dg, const TraceConfig &cfg,
             std::uint64_t seed, int calls)
{
    TraceGenerator gen(dg, cfg, seed);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (int i = 0; i < calls; ++i) {
        const BatchRouting r = gen.next();
        for (const auto &[sw, oc] : r.outcomes)
            for (std::int64_t c : oc.branchCounts)
                for (int byte = 0; byte < 8; ++byte) {
                    h ^= static_cast<std::uint64_t>(c) >> (8 * byte) &
                         0xff;
                    h *= 0x100000001b3ULL;
                }
    }
    return h;
}

/**
 * Every draw the trace makes is part of every simulated digest, so
 * the streams are pinned to constants: serve-drift's per-request
 * traces (batch 1, drift 0.9 over 700-request phases, seed 7), a
 * Tutel-MoE batch of 6272 tokens per gate (the binomial-chain path),
 * offline-sweep's five models at batch 128 under their default
 * trace configurations, Tutel-MoE at batch 8 (1568 tokens per gate,
 * the per-token sampler path, across several drift phases), and
 * top-1 and top-3 gates of eight experts.
 */
TEST(Trace, StreamsMatchParentDigests)
{
    const auto drifting = [](const models::ModelBundle &m,
                             std::int64_t batch) {
        TraceConfig tc = m.traceConfig;
        tc.batchSize = batch;
        tc.driftStrength = 0.9;
        tc.driftPeriod = 700;
        return tc;
    };
    struct Pin
    {
        const char *model;
        std::int64_t batch;
        std::uint64_t digest;
    };
    for (const Pin &pin : {Pin{"tutel-moe", 1, 0x7e3176c8df1447f9ULL},
                           Pin{"skipnet", 1, 0xf3dd1d923b487605ULL},
                           Pin{"pabee", 1, 0xd01d754345377c25ULL},
                           Pin{"tutel-moe", 32, 0xe42b5fec7c5e89f7ULL}}) {
        const models::ModelBundle m = models::buildByName(pin.model, 32);
        EXPECT_EQ(streamDigest(parseModel(m.graph),
                               drifting(m, pin.batch), 7, 2000),
                  pin.digest)
            << pin.model << " at batch " << pin.batch;
    }

    for (const Pin &pin : {Pin{"skipnet", 128, 0x790ed6fcb1ca825fULL},
                           Pin{"pabee", 128, 0xa3c3404862ed02b6ULL},
                           Pin{"fbsnet", 128, 0xc879fcf5c7f933d5ULL},
                           Pin{"tutel-moe", 128, 0xcb37589d7bb30599ULL},
                           Pin{"dpsnet", 128, 0x393a9ca24c37f3dfULL},
                           Pin{"tutel-moe", 8, 0x4d8177f82751e892ULL}}) {
        const models::ModelBundle m =
            models::buildByName(pin.model, pin.batch);
        TraceConfig tc = m.traceConfig;
        tc.batchSize = pin.batch;
        EXPECT_EQ(streamDigest(parseModel(m.graph), tc, 7, 400),
                  pin.digest)
            << pin.model << " at batch " << pin.batch;
    }

    TraceConfig moe;
    moe.batchSize = 8;
    EXPECT_EQ(streamDigest(moeModel(8, 8, 1), moe, 7, 2000),
              0x21386a1681425363ULL)
        << "top-1";
    EXPECT_EQ(streamDigest(moeModel(8, 8, 3), moe, 7, 2000),
              0x1d2d3776ddf01eebULL)
        << "top-3";
}

/**
 * The expert sampler's tables depend only on a gate's weights (bias
 * times the phase's tilt) and k, so they are rebuilt only when those
 * change. Tutel-MoE's two TopKExperts gates share bias, tilt and k, so
 * the second gate reuses the first one's tables: one build per drift
 * phase. Serve-drift's Tutel-MoE shape: 2000 per-request calls reach
 * the phases starting at calls 0, 700 and 1400.
 */
TEST(Trace, ExpertTablesBuiltOncePerDriftPhase)
{
    const models::ModelBundle m = models::buildByName("tutel-moe", 32);
    const DynGraph dg = parseModel(m.graph);
    std::uint64_t gates = 0;
    for (const SwitchInfo &sw : dg.switches())
        gates += dg.graph().node(sw.switchOp).policy.kind ==
                 RoutingPolicy::Kind::TopKExperts;
    ASSERT_EQ(gates, 2u);

    TraceConfig tc = m.traceConfig;
    tc.batchSize = 1;
    tc.driftStrength = 0.9;
    tc.driftPeriod = 700;
    TraceGenerator gen(dg, tc, 7);
    for (int i = 0; i < 2000; ++i)
        (void)gen.next();
    EXPECT_EQ(gen.tableBuilds(), 3u);
}

} // namespace

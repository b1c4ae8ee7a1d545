/**
 * @file
 * Tests for the DynNN model zoo: every workload parses into a valid
 * dynamic operator graph, exposes the expected dynamism category,
 * yields sane routing traces, and has compute demands in the right
 * ballpark for its published backbone. The parsed graphs' data-flow
 * view (producers through routing nodes) is checked against a
 * reference resolution on the zoo and on random DynNNs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/parser.hh"
#include "models/models.hh"
#include "models/random.hh"
#include "probe_expectations.hh"
#include "trace/trace.hh"

namespace {

using namespace adyna;
using namespace adyna::graph;
using namespace adyna::models;
using namespace adyna::trace;

class AllWorkloads : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AllWorkloads, BuildsAndParses)
{
    const ModelBundle bundle = buildByName(GetParam(), 32);
    bundle.graph.validate();
    const DynGraph dg = parseModel(bundle.graph);
    EXPECT_FALSE(dg.switches().empty());
    EXPECT_FALSE(dg.dynamicOps().empty());
    EXPECT_GT(dg.worstCaseMacs(), 0);
}

TEST_P(AllWorkloads, TraceGenerationIsConsistent)
{
    const ModelBundle bundle = buildByName(GetParam(), 32);
    const DynGraph dg = parseModel(bundle.graph);
    TraceConfig cfg = bundle.traceConfig;
    cfg.batchSize = 32;
    TraceGenerator gen(dg, cfg, 7);
    for (int i = 0; i < 10; ++i) {
        const BatchRouting r = gen.next();
        for (OpId op : dg.dynamicOps()) {
            const std::int64_t v = r.dynValue(dg, op);
            EXPECT_GE(v, 0) << dg.graph().node(op).name;
            EXPECT_LE(v, dg.maxDyn(op)) << dg.graph().node(op).name;
        }
    }
}

TEST_P(AllWorkloads, DynamicSavingsAreRealized)
{
    // The expected per-batch MACs under the trace must be strictly
    // below the worst case: that gap is the entire premise of DynNNs.
    const ModelBundle bundle = buildByName(GetParam(), 32);
    const DynGraph dg = parseModel(bundle.graph);
    TraceConfig cfg = bundle.traceConfig;
    cfg.batchSize = 32;
    const auto exp = test::probeExpectations(dg, cfg, 11, 100);
    std::vector<std::pair<OpId, double>> pairs(exp.begin(), exp.end());
    const double expected = dg.expectedMacs(pairs);
    const double worst = static_cast<double>(dg.worstCaseMacs());
    EXPECT_LT(expected, 0.92 * worst) << GetParam();
    EXPECT_GT(expected, 0.05 * worst) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(ModelZoo, AllWorkloads,
                         ::testing::Values("skipnet", "pabee", "fbsnet",
                                           "tutel-moe", "dpsnet",
                                           "adavit"),
                         [](const auto &ti) {
                             std::string n = ti.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

/**
 * Reference producer resolution, written from the definition: a
 * depth-first walk over each input list that looks through Switch
 * and Merge nodes, skips Sink and Output nodes and lists each
 * producer once, in discovery order.
 */
void
referenceProducers(const Graph &g, OpId op, bool crossed,
                   std::vector<char> &seen, std::vector<Producer> &out)
{
    for (OpId in : g.node(op).inputs) {
        if (seen[in])
            continue;
        seen[in] = 1;
        const OpKind kind = g.node(in).kind;
        if (kind == OpKind::Switch || kind == OpKind::Merge)
            referenceProducers(g, in, true, seen, out);
        else if (kind != OpKind::Sink && kind != OpKind::Output)
            out.push_back({in, crossed});
    }
}

/** Check every accessor of @p dg's data-flow view against the
 * reference; returns the number of routing-crossing edges seen. */
int
expectDataFlowMatchesReference(const DynGraph &dg)
{
    const Graph &g = dg.graph();
    const std::size_t n = g.size();
    std::vector<std::vector<Producer>> want(n);
    for (OpId op = 0; op < n; ++op) {
        std::vector<char> seen(n, 0);
        referenceProducers(g, op, false, seen, want[op]);
    }
    std::vector<std::vector<OpId>> consumers(n);
    std::vector<char> feedsOutput(n, 0);
    int crossing = 0;
    for (OpId op = 0; op < n; ++op) {
        for (const Producer &p : want[op]) {
            consumers[p.op].push_back(op);
            if (g.node(op).kind == OpKind::Output)
                feedsOutput[p.op] = 1;
            crossing += p.crossesRouting ? 1 : 0;
        }
    }
    for (OpId op = 0; op < n; ++op) {
        const auto got = dg.producers(op);
        EXPECT_EQ(got.size(), want[op].size()) << dg.name() << " #" << op;
        for (std::size_t i = 0; i < std::min(got.size(), want[op].size());
             ++i) {
            EXPECT_EQ(got[i].op, want[op][i].op)
                << dg.name() << " #" << op << " edge " << i;
            EXPECT_EQ(got[i].crossesRouting, want[op][i].crossesRouting)
                << dg.name() << " #" << op << " edge " << i;
        }
        const auto cons = dg.consumers(op);
        EXPECT_EQ(std::vector<OpId>(cons.begin(), cons.end()),
                  consumers[op])
            << dg.name() << " #" << op;
        EXPECT_EQ(dg.feedsOutput(op), feedsOutput[op] != 0)
            << dg.name() << " #" << op;
        const OpNode &node = g.node(op);
        const LoopDims &dims =
            node.kind == OpKind::Input ? node.dims : dg.info(op).outDims;
        EXPECT_EQ(dg.outBytesPerRow(op),
                  static_cast<Bytes>(dims.k() * dims.p() * dims.q() *
                                     node.dtypeBytes))
            << dg.name() << " #" << op;
    }
    return crossing;
}

/** DynGraph resolves producers once, at parse time; the engine and
 * the search surrogate read only that view, so it must equal the
 * definition on every paper model and on random DynNNs. */
TEST(DynGraph, DataFlowMatchesReference)
{
    int crossing = 0;
    for (const std::string &name : workloadNames())
        for (std::int64_t batch : {64, 128})
            crossing += expectDataFlowMatchesReference(
                parseModel(buildByName(name, batch).graph));
    EXPECT_GT(crossing, 0) << "no edge crosses a routing node";
    RandomModelParams params;
    for (std::uint64_t seed = 1; seed <= 60; ++seed)
        expectDataFlowMatchesReference(
            parseModel(buildRandomDynNN(params, seed).graph));
}

TEST(ModelZoo, WorkloadNamesAreTheFivePaperModels)
{
    const auto names = workloadNames();
    ASSERT_EQ(names.size(), 5u);
    EXPECT_EQ(names[0], "skipnet");
    EXPECT_EQ(names[4], "dpsnet");
}

TEST(ModelZoo, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)buildByName("resnext", 8),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(SkipNet, HasEightSkipGatesAndRestoredBatches)
{
    const ModelBundle bundle = buildSkipNet(64);
    const DynGraph dg = parseModel(bundle.graph);
    ASSERT_EQ(dg.switches().size(), 8u);
    for (const SwitchInfo &sw : dg.switches()) {
        EXPECT_FALSE(sw.hasSink);
        EXPECT_NE(sw.mergeOp, kInvalidOp);
        // Merge restores the full batch: post-merge ops static.
        EXPECT_FALSE(dg.isDynamic(sw.mergeOp));
    }
}

TEST(SkipNet, WorstCaseMacsNearResNet18)
{
    // ResNet-18 is ~1.8 GMACs per image.
    const ModelBundle bundle = buildSkipNet(1);
    const double gmacs =
        static_cast<double>(bundle.graph.totalMacs()) / 1e9;
    EXPECT_GT(gmacs, 1.0);
    EXPECT_LT(gmacs, 3.0);
}

TEST(Pabee, TwelveLayersElevenGates)
{
    const ModelBundle bundle = buildPabee(16);
    const DynGraph dg = parseModel(bundle.graph);
    EXPECT_EQ(dg.switches().size(), 11u);
    for (const SwitchInfo &sw : dg.switches()) {
        EXPECT_TRUE(sw.hasSink);
        EXPECT_EQ(dg.graph().node(sw.switchOp).policy.unitsPerSample,
                  128);
    }
}

TEST(Pabee, ExitTraceSavesAboutFortyPercent)
{
    const ModelBundle bundle = buildPabee(64);
    const DynGraph dg = parseModel(bundle.graph);
    const auto exp =
        test::probeExpectations(dg, bundle.traceConfig, 3, 200);
    std::vector<std::pair<OpId, double>> pairs(exp.begin(), exp.end());
    const double ratio = dg.expectedMacs(pairs) /
                         static_cast<double>(dg.worstCaseMacs());
    // PABEE reports ~1.6x average saving: ratio ~0.55-0.72.
    EXPECT_GT(ratio, 0.45);
    EXPECT_LT(ratio, 0.80);
}

TEST(FbsNet, SevenPrunedLayersWithEightBlocks)
{
    const ModelBundle bundle = buildFbsNet(16);
    const DynGraph dg = parseModel(bundle.graph);
    ASSERT_EQ(dg.switches().size(), 7u);
    for (const SwitchInfo &sw : dg.switches())
        EXPECT_EQ(sw.numBranches(), 8);
}

TEST(TutelMoe, ExpertWeightsFillOnChipBuffers)
{
    // The paper sizes Tutel-MoE to fill the 72 MB of on-chip SRAM.
    const ModelBundle bundle = buildTutelMoe(128);
    const Bytes weights = bundle.graph.totalWeightBytes();
    EXPECT_GT(weights, Bytes{30} << 20);
    EXPECT_LT(weights, Bytes{80} << 20);
}

TEST(TutelMoe, RoutesTokensNotImages)
{
    const ModelBundle bundle = buildTutelMoe(16);
    const DynGraph dg = parseModel(bundle.graph);
    TraceGenerator gen(dg, bundle.traceConfig, 5);
    const BatchRouting r = gen.next();
    int moeSwitches = 0;
    for (const SwitchInfo &sw : dg.switches()) {
        if (dg.graph().node(sw.switchOp).policy.kind !=
            RoutingPolicy::Kind::TopKExperts)
            continue;
        ++moeSwitches;
        const auto &oc = r.outcome(sw.switchOp);
        std::int64_t total = 0;
        for (std::int64_t c : oc.branchCounts)
            total += c;
        // top-2 over 16 x 196 token rows.
        EXPECT_EQ(total, 2 * 16 * 196);
    }
    EXPECT_EQ(moeSwitches, 2);
}

TEST(DpsNet, FoldsTo8192RowsAtBatch128)
{
    const ModelBundle bundle = buildDpsNet(128);
    const DynGraph dg = parseModel(bundle.graph);
    std::int64_t maxDyn = 0;
    for (OpId op : dg.dynamicOps())
        maxDyn = std::max(maxDyn, dg.maxDyn(op));
    EXPECT_EQ(maxDyn, 8192);
}

TEST(DpsNet, HeadIsStaticAfterUnfold)
{
    const ModelBundle bundle = buildDpsNet(32);
    const DynGraph dg = parseModel(bundle.graph);
    for (const OpNode &n : dg.graph().nodes()) {
        if (n.name == "head") {
            EXPECT_FALSE(dg.isDynamic(n.id));
            EXPECT_EQ(n.dims.n(), 32);
        }
    }
}

TEST(AdaVit, NestsSkipInsidePatchSelect)
{
    const ModelBundle bundle = buildAdaVit(16);
    const DynGraph dg = parseModel(bundle.graph);
    int patchSel = 0, skips = 0;
    for (const SwitchInfo &sw : dg.switches()) {
        const auto kind = dg.graph().node(sw.switchOp).policy.kind;
        patchSel += kind == RoutingPolicy::Kind::PatchSelect;
        skips += kind == RoutingPolicy::Kind::LayerSkip;
    }
    EXPECT_EQ(patchSel, 1);
    EXPECT_EQ(skips, 4);
    // Head static again after the unfold merge.
    for (const OpNode &n : dg.graph().nodes()) {
        if (n.name == "head") {
            EXPECT_FALSE(dg.isDynamic(n.id));
        }
    }
}

TEST(AdaVit, SkipRowsBoundedByKeptPatches)
{
    const ModelBundle bundle = buildAdaVit(16);
    const DynGraph dg = parseModel(bundle.graph);
    TraceGenerator gen(dg, bundle.traceConfig, 9);
    for (int i = 0; i < 20; ++i) {
        const BatchRouting r = gen.next();
        std::int64_t kept = -1;
        for (const SwitchInfo &sw : dg.switches()) {
            const auto &node = dg.graph().node(sw.switchOp);
            const auto &oc = r.outcome(sw.switchOp);
            if (node.policy.kind == RoutingPolicy::Kind::PatchSelect)
                kept = oc.branchCounts[0];
        }
        ASSERT_GT(kept, 0);
        for (const SwitchInfo &sw : dg.switches()) {
            const auto &node = dg.graph().node(sw.switchOp);
            if (node.policy.kind != RoutingPolicy::Kind::LayerSkip)
                continue;
            const auto &oc = r.outcome(sw.switchOp);
            // Skip+run rows together equal the kept patch rows.
            EXPECT_EQ(oc.branchCounts[0] + oc.branchCounts[1], kept);
        }
    }
}

} // namespace

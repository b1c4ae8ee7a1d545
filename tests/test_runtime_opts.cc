/**
 * @file
 * Integration tests for the runtime-adjustment mechanisms
 * (Section V-B): tile-sharing configuration selection under
 * anti-correlated branch loads, branch grouping's temporal tile
 * reuse, M-tenant's host routing serialization, and the
 * reconfiguration loop's profiler feedback.
 */

#include <gtest/gtest.h>

#include "arch/profiler.hh"
#include "baselines/designs.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "graph/parser.hh"
#include "graph/transforms.hh"
#include "models/models.hh"

namespace {

using namespace adyna;
using namespace adyna::core;
using namespace adyna::graph;

arch::HwConfig
hw()
{
    return arch::HwConfig{};
}

/** Two-expert MoE whose loads swing strongly between batches; the
 * experts dominate the pipeline so their balance decides the
 * bottleneck. */
DynGraph
swingMoE(std::int64_t batch)
{
    Graph g("swing");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 512, 512));
    OpId t = g.addMatMul("proj", in, 64, 512);
    OpId merge = addMoE(g, "moe", t, 2, 1, {},
                        [](Graph &gg, OpId s) {
                            OpId up =
                                gg.addMatMul("ffn.up", s, 4096, 64);
                            return gg.addMatMul("ffn.down", up, 64,
                                                4096);
                        });
    g.addOutput("out", g.addMatMul("head", merge, 16, 64));
    return parseModel(g);
}

/**
 * Hand-crafted bursty routings: one expert stays hot (90/10) for
 * eight batches, then the burst flips. Tile sharing shines exactly
 * here -- during a burst the cold expert's tiles are borrowed --
 * whereas a per-batch alternating pattern self-balances over time
 * and leaves no throughput to recover.
 */
std::vector<trace::BatchRouting>
swingRoutings(const DynGraph &dg, std::int64_t batch, int n)
{
    const OpId sw = dg.switches()[0].switchOp;
    std::vector<trace::BatchRouting> out;
    for (int b = 0; b < n; ++b) {
        trace::BatchRouting r;
        trace::SwitchOutcome oc;
        const std::int64_t hot = batch * 9 / 10;
        oc.branchCounts = (b / 8) % 2 == 0
                              ? std::vector<std::int64_t>{hot,
                                                          batch - hot}
                              : std::vector<std::int64_t>{batch - hot,
                                                          hot};
        oc.activeBefore = batch;
        oc.activeAfter = batch;
        r.outcomes.emplace_back(sw, oc);
        out.push_back(std::move(r));
    }
    return out;
}

TEST(TileSharing, AbsorbsAntiCorrelatedSwings)
{
    const DynGraph dg = swingMoE(128);
    costmodel::Mapper mapper(hw().tech);

    // Profile with the swinging loads so the scheduler pairs the
    // two experts.
    arch::Profiler prof;
    const OpId sw = dg.switches()[0].switchOp;
    for (const auto &r : swingRoutings(dg, 128, 32))
        prof.recordBranchLoads(sw, r.outcome(sw).branchCounts);

    SchedulerConfig shareCfg;
    shareCfg.tileSharing = true;
    SchedulerConfig plainCfg;
    plainCfg.tileSharing = false;
    Scheduler shareSched(dg, hw(), mapper, shareCfg);
    Scheduler plainSched(dg, hw(), mapper, plainCfg);
    const Schedule shared = shareSched.build({}, {}, &prof);
    const Schedule plain = plainSched.build({}, {}, &prof);
    // One pair per expert-stage depth (up and down).
    ASSERT_EQ(shared.segments[0]->pairs.size(), 2u);
    ASSERT_TRUE(plain.segments[0]->pairs.empty());

    ExecPolicy pol;
    Engine engShared(dg, hw(), mapper, pol);
    Engine engPlain(dg, hw(), mapper, pol);
    arch::Chip chipShared(hw()), chipPlain(hw());
    const auto rts = swingRoutings(dg, 128, 24);
    const auto a = engShared.runPeriod(chipShared, shared, rts,
                                       nullptr, 0);
    const auto b = engPlain.runPeriod(chipPlain, plain, rts, nullptr,
                                      0);
    // The sharing configuration must strictly beat the fixed split
    // on this adversarial swing pattern.
    EXPECT_LT(a.endTime, b.endTime);
}

TEST(HostRouting, SerializesSwitchEdgesOnHostCpu)
{
    const auto bundle = models::buildSkipNet(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    SchedulerConfig scfg = baselines::schedulerConfig(
        baselines::Design::MTenant);
    Scheduler sched(dg, hw(), mapper, scfg);
    const Schedule s = sched.build({}, {}, nullptr);

    auto run = [&](Cycles syncCycles) {
        ExecPolicy pol =
            baselines::execPolicy(baselines::Design::MTenant);
        pol.hostSyncCycles = syncCycles;
        Engine eng(dg, hw(), mapper, pol);
        arch::Chip chip(hw());
        trace::TraceConfig cfg = bundle.traceConfig;
        cfg.batchSize = 64;
        trace::TraceGenerator gen(dg, cfg, 3);
        std::vector<trace::BatchRouting> rts;
        for (int i = 0; i < 6; ++i)
            rts.push_back(gen.next());
        return eng.runPeriod(chip, s, rts, nullptr, 0).endTime;
    };
    const Tick cheap = run(0);
    const Tick dear = run(200000); // 200 us per routing decision
    EXPECT_GT(dear, cheap + 200000);
}

TEST(Reconfiguration, CountsAndExpectationsFlow)
{
    const auto bundle = models::buildTutelMoe(32);
    const DynGraph dg = parseModel(bundle.graph);
    trace::TraceConfig cfg = bundle.traceConfig;
    cfg.batchSize = 32;
    auto opts = baselines::runOptions(baselines::Design::Adyna, 130,
                                      3);
    core::System sys(dg, cfg, hw(),
                     baselines::schedulerConfig(
                         baselines::Design::Adyna),
                     baselines::execPolicy(baselines::Design::Adyna),
                     opts, "Adyna");
    const auto rep = sys.run();
    // 130 batches at period 40 -> reconfigs after 40, 80, 120.
    EXPECT_EQ(rep.reconfigurations, 3);
    EXPECT_EQ(rep.batchEnds.size(), 130u);
}

TEST(BranchGrouping, GroupedStagesShareTilesTemporally)
{
    // 4-expert MoE with two cold experts: their stages share a tile
    // range and thus serialize, freeing tiles for the hot experts.
    Graph g("cold");
    OpId in = g.addInput("in", LoopDims::matmul(128, 256, 256));
    OpId t = g.addMatMul("proj", in, 256, 256);
    OpId merge = addMoE(g, "moe", t, 4, 1, {},
                        [](Graph &gg, OpId s) {
                            return gg.addMatMul("ffn", s, 256, 256);
                        });
    g.addOutput("out", merge);
    const DynGraph dg = parseModel(g);
    costmodel::Mapper mapper(hw().tech);

    arch::Profiler prof;
    const OpId sw = dg.switches()[0].switchOp;
    for (int i = 0; i < 32; ++i)
        prof.recordBranchLoads(sw, {70, 58, 0, i % 10 == 0 ? 3 : 0});

    SchedulerConfig cfg;
    cfg.branchGrouping = true;
    cfg.tileSharing = false;
    Scheduler sched(dg, hw(), mapper, cfg);
    const Schedule s = sched.build({}, {}, &prof);

    const auto &swi = dg.switchInfo(sw);
    const int s2 = s.segments[0]->stageOf(swi.branches[2][0]);
    const int s3 = s.segments[0]->stageOf(swi.branches[3][0]);
    ASSERT_GE(s2, 0);
    ASSERT_GE(s3, 0);
    const auto &st2 =
        s.segments[0]->stages[static_cast<std::size_t>(s2)];
    const auto &st3 =
        s.segments[0]->stages[static_cast<std::size_t>(s3)];
    EXPECT_EQ(st2.tiles, st3.tiles);
    // Hot experts keep disjoint ranges.
    const int s0 = s.segments[0]->stageOf(swi.branches[0][0]);
    const auto &st0 =
        s.segments[0]->stages[static_cast<std::size_t>(s0)];
    EXPECT_NE(st0.tiles, st2.tiles);
}

} // namespace

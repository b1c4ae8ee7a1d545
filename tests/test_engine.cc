/**
 * @file
 * Tests for the execution engine and the end-to-end System: pipeline
 * overlap, design-policy semantics (worst-case execution, fitting,
 * DRAM round trips, host routing), determinism, and the qualitative
 * relationships the paper's evaluation rests on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "baselines/designs.hh"
#include "common/rng.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
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

/** Static three-stage pipeline. */
DynGraph
staticPipe(std::int64_t batch)
{
    Graph g("pipe");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 512, 512));
    OpId a = g.addMatMul("a", in, 512, 512);
    OpId b = g.addMatMul("b", a, 512, 512);
    OpId c = g.addMatMul("c", b, 512, 512);
    g.addOutput("out", c);
    return parseModel(g);
}

std::vector<trace::BatchRouting>
routings(const DynGraph &dg, std::int64_t batch, int n,
         std::uint64_t seed = 1)
{
    trace::TraceConfig cfg;
    cfg.batchSize = batch;
    cfg.driftStrength = 0.0;
    trace::TraceGenerator gen(dg, cfg, seed);
    std::vector<trace::BatchRouting> out;
    for (int i = 0; i < n; ++i)
        out.push_back(gen.next());
    return out;
}

TEST(Engine, NocSlicesCoverEveryByte)
{
    // The per-source NoC slices must partition the transfer exactly:
    // no byte dropped to integer division, and balanced to within
    // one byte. (The seed's `bytes / parts` lost the remainder.)
    for (Bytes total : {Bytes{0}, Bytes{1}, Bytes{7}, Bytes{4096},
                        Bytes{100003}}) {
        for (std::size_t parts : {std::size_t{1}, std::size_t{3},
                                  std::size_t{7}, std::size_t{12}}) {
            Bytes sum = 0, lo = total + 1, hi = 0;
            for (std::size_t i = 0; i < parts; ++i) {
                const Bytes s = nocSliceBytes(total, parts, i);
                sum += s;
                lo = std::min(lo, s);
                hi = std::max(hi, s);
            }
            EXPECT_EQ(sum, total) << total << "/" << parts;
            EXPECT_LE(hi - lo, 1u) << total << "/" << parts;
        }
    }
}

TEST(Engine, NocSlicesPartitionExactlyUnderDetours)
{
    // Same partition invariant with the NoC under link faults: the
    // per-source slices must still cover every byte, and each slice's
    // transfer must account its bytes on the (possibly detoured)
    // route it actually took — detours change hop counts, never the
    // payload split.
    arch::Noc noc{hw()};
    adyna::Rng rng(77);
    const int tiles = hw().tiles();
    for (int f = 0; f < 24; ++f)
        noc.setLinkDown(
            static_cast<TileId>(rng.uniformInt(0, tiles - 1)),
            static_cast<int>(rng.uniformInt(0, 3)), true);
    ASSERT_GT(noc.downLinks(), 0);

    for (Bytes total : {Bytes{4096}, Bytes{100003}}) {
        for (std::size_t parts :
             {std::size_t{3}, std::size_t{7}, std::size_t{12}}) {
            Bytes sum = 0;
            Bytes accounted = 0;
            const Bytes before = noc.byteHopsServed();
            for (std::size_t i = 0; i < parts; ++i) {
                const Bytes s = nocSliceBytes(total, parts, i);
                sum += s;
                const TileId src = static_cast<TileId>(
                    (i * 29) % static_cast<std::size_t>(tiles));
                const TileId dst = static_cast<TileId>(
                    (i * 53 + 40) % static_cast<std::size_t>(tiles));
                const auto t = noc.transfer(0, src, dst, s);
                // Bytes are charged exactly once per hop of the
                // route the fault state actually selected.
                EXPECT_EQ(t.hops,
                          static_cast<int>(noc.route(src, dst).size()));
                EXPECT_EQ(t.byteHops,
                          s * static_cast<Bytes>(t.hops));
                accounted += t.byteHops;
            }
            EXPECT_EQ(sum, total) << total << "/" << parts;
            EXPECT_EQ(noc.byteHopsServed() - before, accounted);
        }
    }
}

TEST(Engine, PipelineOverlapsBatches)
{
    const DynGraph dg = staticPipe(64);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);
    Engine eng(dg, hw(), mapper, ExecPolicy{});
    arch::Chip chip(hw());
    const auto res =
        eng.runPeriod(chip, s, routings(dg, 64, 8), nullptr, 0);
    ASSERT_EQ(res.batchEnds.size(), 8u);
    const Tick latency = res.batchEnds[0];
    const Tick delta = res.batchEnds.back() - res.batchEnds[6];
    // Steady-state spacing far below the single-batch latency.
    EXPECT_LT(delta * 2, latency);
    // Monotone completion.
    for (std::size_t i = 1; i < res.batchEnds.size(); ++i)
        EXPECT_GE(res.batchEnds[i], res.batchEnds[i - 1]);
}

TEST(Engine, BarrierShiftsAllTimes)
{
    const DynGraph dg = staticPipe(64);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);
    Engine a(dg, hw(), mapper, ExecPolicy{});
    Engine b(dg, hw(), mapper, ExecPolicy{});
    arch::Chip chipA(hw()), chipB(hw());
    const auto ra =
        a.runPeriod(chipA, s, routings(dg, 64, 4), nullptr, 0);
    const auto rb =
        b.runPeriod(chipB, s, routings(dg, 64, 4), nullptr, 12345);
    EXPECT_EQ(rb.endTime - ra.endTime, 12345u);
}

TEST(Engine, WorstCaseExecIssuesMoreMacs)
{
    const auto bundle = models::buildSkipNet(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    SchedulerConfig wcCfg;
    wcCfg.worstCase = true;
    Scheduler wcSched(dg, hw(), mapper, wcCfg);
    Scheduler dynSched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule wcS = wcSched.build({}, {}, nullptr);
    const Schedule dynS = dynSched.build({}, {}, nullptr);

    ExecPolicy wcPol;
    wcPol.worstCaseExec = true;
    wcPol.kernelFitting = false;
    Engine wcEng(dg, hw(), mapper, wcPol);
    Engine dynEng(dg, hw(), mapper, ExecPolicy{});

    arch::Chip wcChip(hw()), dynChip(hw());
    const auto rts = routings(dg, 64, 6);
    (void)wcEng.runPeriod(wcChip, wcS, rts, nullptr, 0);
    (void)dynEng.runPeriod(dynChip, dynS, rts, nullptr, 0);

    // Worst-case execution issues strictly more MACs for the same
    // useful work (Figure 10's M-tile-has-high-utilization effect).
    EXPECT_GT(wcChip.issuedMacs(), dynChip.issuedMacs());
    EXPECT_EQ(wcChip.usefulMacs(), dynChip.usefulMacs());
    EXPECT_EQ(dynChip.issuedMacs(), dynChip.usefulMacs());
}

TEST(Engine, NoPipeliningMovesTensorsThroughDram)
{
    const DynGraph dg = staticPipe(64);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);

    ExecPolicy noPipe;
    noPipe.pipelining = false;
    noPipe.perBatchRepartition = true;
    noPipe.exactKernels = true;
    Engine a(dg, hw(), mapper, noPipe);
    Engine b(dg, hw(), mapper, ExecPolicy{});
    arch::Chip chipA(hw()), chipB(hw());
    const auto rts = routings(dg, 64, 6);
    (void)a.runPeriod(chipA, s, rts, nullptr, 0);
    (void)b.runPeriod(chipB, s, rts, nullptr, 0);
    // DRAM traffic grows without pipelining (every inter-stage
    // tensor round-trips); the NoC goes quiet.
    EXPECT_GT(chipA.hbm().bytesServed(),
              chipB.hbm().bytesServed() * 3 / 2);
    EXPECT_LT(chipA.noc().byteHopsServed(),
              chipB.noc().byteHopsServed());
}

/**
 * Two independent chains, a -> b and c -> d. Cutting between the
 * chains, {a b} {c d}, keeps both edges inside a segment; cutting
 * across them, {a c} {b d}, gives every op the same tile count but
 * sends both edges through DRAM: the producer writes its output back
 * and the consumer reads it. So HBM serves exactly four more tensors
 * per batch, and nothing else moves.
 */
TEST(Engine, CrossSegmentEdgesRoundTripThroughDram)
{
    Graph g("chains");
    const OpId in = g.addInput("in", LoopDims::matmul(64, 512, 512));
    const OpId a = g.addMatMul("a", in, 512, 512);
    const OpId c = g.addMatMul("c", in, 512, 512);
    g.addOutput("outB", g.addMatMul("b", a, 512, 512));
    g.addOutput("outD", g.addMatMul("d", c, 512, 512));
    const DynGraph dg = parseModel(g);
    std::map<std::string, OpId> id;
    for (const OpNode &node : dg.graph().nodes())
        id[node.name] = node.id;

    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const auto rts = routings(dg, 64, 6);
    const auto hbmBytes = [&](std::vector<std::vector<OpId>> cut) {
        PlanOverride plan;
        plan.partition = std::move(cut);
        sched.setPlanOverride(&plan);
        const Schedule s = sched.build({}, {}, nullptr);
        sched.setPlanOverride(nullptr);
        Engine eng(dg, hw(), mapper, ExecPolicy{});
        arch::Chip chip(hw());
        (void)eng.runPeriod(chip, s, rts, nullptr, 0);
        return chip.hbm().bytesServed();
    };
    const Bytes within =
        hbmBytes({{id["a"], id["b"]}, {id["c"], id["d"]}});
    const Bytes across =
        hbmBytes({{id["a"], id["c"]}, {id["b"], id["d"]}});
    const Bytes tensor = 64 * dg.outBytesPerRow(id["a"]);
    EXPECT_EQ(across - within, 4 * tensor * rts.size());
}

TEST(Engine, ProfilerReceivesDynValuesAndBranchLoads)
{
    const auto bundle = models::buildSkipNet(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);
    Engine eng(dg, hw(), mapper, ExecPolicy{});
    arch::Chip chip(hw());
    arch::Profiler prof;
    const auto rts = routings(dg, 64, 5);
    (void)eng.runPeriod(chip, s, rts, &prof, 0);
    // Every dynamic stage op has a populated frequency table.
    for (OpId op : dg.dynamicOps()) {
        if (!isCompute(dg.graph().node(op).kind))
            continue;
        EXPECT_EQ(prof.table(op).total(), 5u)
            << dg.graph().node(op).name;
    }
    for (const SwitchInfo &sw : dg.switches())
        EXPECT_EQ(prof.branchHistory(sw.switchOp).size(), 5u);
}

TEST(Engine, NocReservationWorkIsPinned)
{
    // Each pipelined edge goes out as one message per source slice,
    // all leaving at one time with one service time, so most link
    // reservations repeat the link's previous request and are granted
    // without a search. Pins the NoC's reservation work for a fixed
    // SkipNet schedule over three periods; a change that moves it
    // updates the pin.
    const auto bundle = models::buildSkipNet(32);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);
    const auto rts = routings(dg, 32, 24, 7);
    struct Work
    {
        std::uint64_t nocAcquires, nocRepeats, hbmAcquires, hbmRepeats;
        bool operator==(const Work &) const = default;
    };
    const auto run = [&] {
        Engine eng(dg, hw(), mapper, ExecPolicy{});
        arch::Chip chip(hw());
        Tick barrier = 0;
        for (std::size_t first = 0; first < rts.size(); first += 8) {
            const std::vector<trace::BatchRouting> period(
                rts.begin() + static_cast<std::ptrdiff_t>(first),
                rts.begin() + static_cast<std::ptrdiff_t>(first + 8));
            barrier =
                eng.runPeriod(chip, s, period, nullptr, barrier).endTime;
        }
        return Work{chip.noc().linkAcquires(),
                    chip.noc().linkRepeatGrants(),
                    chip.hbm().acquires(), chip.hbm().repeatGrants()};
    };
    const Work a = run();
    EXPECT_EQ(a.nocAcquires, 80068u);
    EXPECT_EQ(a.nocRepeats, 47194u);
    EXPECT_GT(a.nocRepeats, 0u);
    EXPECT_LE(a.hbmRepeats, a.hbmAcquires);
    EXPECT_EQ(run(), a);
}

// ------------------------------------------------------------- System

TEST(System, DeterministicAcrossRuns)
{
    const auto bundle = models::buildSkipNet(32);
    const DynGraph dg = parseModel(bundle.graph);
    auto mk = [&] {
        return baselines::makeSystem(dg, bundle.traceConfig, hw(),
                                     baselines::Design::Adyna, 30, 9);
    };
    const auto a = mk().run();
    const auto b = mk().run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.batchEnds, b.batchEnds);
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total());
}

TEST(System, ReportsConsistentMetrics)
{
    const auto bundle = models::buildSkipNet(32);
    const DynGraph dg = parseModel(bundle.graph);
    auto sys = baselines::makeSystem(dg, bundle.traceConfig, hw(),
                                     baselines::Design::Adyna, 45, 3);
    const auto rep = sys.run();
    EXPECT_EQ(rep.workload, "skipnet");
    EXPECT_EQ(rep.design, "Adyna");
    EXPECT_EQ(rep.batchEnds.size(), 45u);
    EXPECT_GT(rep.cycles, 0u);
    EXPECT_NEAR(rep.timeMs, rep.cycles / 1e6, 1e-6);
    EXPECT_GT(rep.peUtilization, 0.0);
    EXPECT_LE(rep.peUtilization, 1.0);
    EXPECT_GT(rep.energy.total(), 0.0);
    EXPECT_EQ(rep.reconfigurations, 1); // 45 batches, period 40
    EXPECT_GE(rep.usefulMacs, 1u);
    EXPECT_GE(rep.issuedMacs, rep.usefulMacs);
}

class DesignOrdering : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DesignOrdering, PaperRelationshipsHold)
{
    // The central qualitative claims of Figure 9, checked per
    // workload on a short run: Adyna beats M-tile; Adyna is within a
    // modest gap of the full-kernel upper bound.
    const auto bundle = models::buildByName(GetParam(), 64);
    const DynGraph dg = parseModel(bundle.graph);
    const int batches = 60;
    auto time = [&](baselines::Design d) {
        return baselines::makeSystem(dg, bundle.traceConfig, hw(), d,
                                     batches, 5)
            .run()
            .timeMs;
    };
    const double mtile = time(baselines::Design::MTile);
    const double adyna = time(baselines::Design::Adyna);
    const double full = time(baselines::Design::FullKernel);
    EXPECT_GT(mtile, adyna) << GetParam();
    EXPECT_LE(full, adyna * 1.02) << GetParam();
    EXPECT_GE(full, adyna * 0.75) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Workloads, DesignOrdering,
                         ::testing::Values("pabee", "fbsnet",
                                           "tutel-moe", "dpsnet"),
                         [](const auto &ti) {
                             std::string n = ti.param;
                             for (char &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(System, EnergyBreakdownDominatedByComputeOrMemory)
{
    const auto bundle = models::buildPabee(32);
    const DynGraph dg = parseModel(bundle.graph);
    auto sys = baselines::makeSystem(dg, bundle.traceConfig, hw(),
                                     baselines::Design::Adyna, 20, 3);
    const auto rep = sys.run();
    EXPECT_GT(rep.energy.pe, 0.0);
    EXPECT_GT(rep.energy.hbm, 0.0);
    EXPECT_GT(rep.energy.noc, 0.0);
    // NoC energy is a small fraction of the total.
    EXPECT_LT(rep.energy.noc, 0.2 * rep.energy.total());
}

} // namespace

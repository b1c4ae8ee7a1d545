/**
 * @file
 * Unit tests for the dynamism-aware scheduler (Section V):
 * segmentation atoms and capacity, frequency-weighted allocation,
 * weight residency, tile sharing pairs, branch grouping, and kernel
 * store construction.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/profiler.hh"
#include "core/scheduler.hh"
#include "graph/parser.hh"
#include "graph/transforms.hh"
#include "models/models.hh"
#include "schedule_fingerprint.hh"
#include "trace/trace.hh"

namespace {

using namespace adyna;
using namespace adyna::core;
using namespace adyna::graph;
using adyna::test::scheduleFingerprint;

arch::HwConfig
hw()
{
    return arch::HwConfig{};
}

/** Two-branch MoE-style model whose branches can pair for sharing. */
DynGraph
pairableModel(std::int64_t batch)
{
    Graph g("pairable");
    OpId in = g.addInput("in", LoopDims::matmul(batch, 512, 512));
    OpId t = g.addMatMul("proj", in, 512, 512);
    OpId merge = addMoE(g, "moe", t, 2, 1, {},
                        [](Graph &gg, OpId s) {
                            return gg.addMatMul("ffn", s, 512, 512);
                        });
    OpId head = g.addMatMul("head", merge, 128, 512);
    g.addOutput("out", head);
    return parseModel(g);
}

TEST(Scheduler, AllocationCoversAllTilesOnce)
{
    const auto bundle = models::buildSkipNet(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);
    ASSERT_EQ(s.segments.size(), 1u);

    std::set<TileId> used;
    int total = 0;
    for (const StageAssign &st : s.segments[0]->stages) {
        total += st.baseTiles;
        for (int i = 0; i < st.baseTiles; ++i)
            used.insert(st.tiles[static_cast<std::size_t>(i)]);
        EXPECT_GE(st.baseTiles, 1);
    }
    EXPECT_EQ(total, hw().tiles());
    EXPECT_EQ(used.size(), static_cast<std::size_t>(hw().tiles()));
}

TEST(Scheduler, FrequencyWeightedAllocationFollowsExpectations)
{
    // Two identical matmuls; one expects 4x the rows of the other.
    Graph g("two");
    OpId in = g.addInput("in", LoopDims::matmul(128, 512, 512));
    OpId sw = addEarlyExit(g, "gate", in, 2, 0.5, 0);
    OpId a = buildBranch(g, sw, 1, [](Graph &gg, OpId s) {
        return gg.addMatMul("a", s, 512, 512);
    });
    OpId b2 = g.addMatMul("b", a, 512, 512);
    g.addOutput("out", b2);
    const DynGraph dg = parseModel(g);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});

    OpId aId = kInvalidOp;
    for (const auto &n : dg.graph().nodes())
        if (n.name == "a")
            aId = n.id;
    // 'a' and 'b' see the same dynamic rows; bias 'a' low.
    std::map<OpId, double> exps{{aId, 16.0}};
    const Schedule s = sched.build(exps, {}, nullptr);
    int ta = 0, tb = 0;
    for (const StageAssign &st : s.segments[0]->stages) {
        if (dg.graph().node(st.op).name == "a")
            ta = st.baseTiles;
        if (dg.graph().node(st.op).name == "b")
            tb = st.baseTiles;
    }
    EXPECT_GT(tb, 3 * ta);
}

TEST(Scheduler, WorstCaseIgnoresExpectations)
{
    const auto bundle = models::buildSkipNet(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    SchedulerConfig cfg;
    cfg.worstCase = true;
    Scheduler sched(dg, hw(), mapper, cfg);
    // Absurd expectations must have no effect.
    std::map<OpId, double> exps;
    for (OpId op : dg.dynamicOps())
        exps[op] = 1.0;
    const Schedule a = sched.build({}, {}, nullptr);
    const Schedule b = sched.build(exps, {}, nullptr);
    for (std::size_t i = 0; i < a.segments[0]->stages.size(); ++i)
        EXPECT_EQ(a.segments[0]->stages[i].baseTiles,
                  b.segments[0]->stages[i].baseTiles);
    // Worst case keeps exactly one kernel per operator.
    for (const StageAssign &st : a.segments[0]->stages)
        for (const auto &[tiles, store] : st.stores)
            EXPECT_EQ(store->size(), 1u);
}

TEST(Scheduler, PabeeSplitsIntoMultipleSegments)
{
    // BERT-base weights (~210 MB) exceed the 36 MB segment budget.
    const auto bundle = models::buildPabee(32);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);
    EXPECT_GE(s.segments.size(), 3u);
    // Every stage op appears in exactly one segment.
    std::set<OpId> seen;
    for (const auto &seg : s.segments)
        for (const StageAssign &st : seg->stages) {
            EXPECT_FALSE(seen.count(st.op));
            seen.insert(st.op);
        }
}

TEST(Scheduler, SwitchRegionsStayWithinOneSegment)
{
    const auto bundle = models::buildTutelMoe(32);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);
    for (const SwitchInfo &sw : dg.switches()) {
        if (sw.mergeOp == kInvalidOp)
            continue;
        // All branch stages of one switch share a segment index.
        int seg = -2;
        for (const auto &branch : sw.branches) {
            for (OpId op : branch) {
                for (std::size_t i = 0; i < s.segments.size(); ++i) {
                    if (s.segments[i]->stageOf(op) >= 0) {
                        if (seg == -2)
                            seg = static_cast<int>(i);
                        EXPECT_EQ(seg, static_cast<int>(i));
                    }
                }
            }
        }
    }
}

TEST(Scheduler, KernelStoresRespectBudgetAndCoverMax)
{
    const auto bundle = models::buildSkipNet(128);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    SchedulerConfig cfg;
    cfg.kernelBudgetPerOp = 8;
    Scheduler sched(dg, hw(), mapper, cfg);
    const Schedule s =
        sched.build({}, sched.initialKernelValues(), nullptr);
    for (const StageAssign &st : s.segments[0]->stages) {
        for (const auto &[tiles, store] : st.stores) {
            EXPECT_LE(store->size(), 10u);
            if (dg.isDynamic(st.op)) {
                EXPECT_EQ(store->values().back(),
                          dg.graph().node(st.op).dims.n());
            }
        }
    }
}

TEST(Scheduler, TileSharingPairsComplementaryBranches)
{
    const DynGraph dg = pairableModel(128);
    costmodel::Mapper mapper(hw().tech);
    SchedulerConfig cfg;
    cfg.tileSharing = true;
    Scheduler sched(dg, hw(), mapper, cfg);

    // Anti-correlated expert loads in the profile.
    arch::Profiler prof;
    OpId sw = dg.switches()[0].switchOp;
    for (int i = 0; i < 32; ++i)
        prof.recordBranchLoads(
            sw, i % 2 == 0 ? std::vector<std::int64_t>{100, 28}
                           : std::vector<std::int64_t>{28, 100});

    const Schedule s = sched.build({}, {}, &prof);
    ASSERT_EQ(s.segments.size(), 1u);
    ASSERT_EQ(s.segments[0]->pairs.size(), 1u);
    const SharePair &pair = s.segments[0]->pairs[0];
    const StageAssign &sa =
        s.segments[0]->stages[static_cast<std::size_t>(pair.stageA)];
    const StageAssign &sb =
        s.segments[0]->stages[static_cast<std::size_t>(pair.stageB)];
    // Both sides share the same union tile range.
    EXPECT_EQ(sa.tiles, sb.tiles);
    EXPECT_TRUE(sa.shareFirst);
    EXPECT_FALSE(sb.shareFirst);
    // Three allocation ratios, all summing to the union size.
    const int total = pair.alloc[0].first + pair.alloc[0].second;
    for (int c = 0; c < 3; ++c) {
        EXPECT_EQ(pair.alloc[static_cast<std::size_t>(c)].first +
                      pair.alloc[static_cast<std::size_t>(c)].second,
                  total);
        EXPECT_GE(pair.alloc[static_cast<std::size_t>(c)].first, 1);
    }
    // Kernel stores exist for every shared tile count.
    for (int c = 0; c < 3; ++c)
        EXPECT_TRUE(sa.stores.count(
            pair.alloc[static_cast<std::size_t>(c)].first));
}

TEST(Scheduler, SharingDisabledProducesNoPairs)
{
    const DynGraph dg = pairableModel(128);
    costmodel::Mapper mapper(hw().tech);
    SchedulerConfig cfg;
    cfg.tileSharing = false;
    Scheduler sched(dg, hw(), mapper, cfg);
    arch::Profiler prof;
    OpId sw = dg.switches()[0].switchOp;
    for (int i = 0; i < 32; ++i)
        prof.recordBranchLoads(sw, {100, 28});
    const Schedule s = sched.build({}, {}, &prof);
    EXPECT_TRUE(s.segments[0]->pairs.empty());
}

TEST(Scheduler, BranchGroupingMergesRareBranches)
{
    // 4-expert MoE where experts 2 and 3 are almost never active.
    Graph g("rare");
    OpId in = g.addInput("in", LoopDims::matmul(128, 256, 256));
    OpId t = g.addMatMul("proj", in, 256, 256);
    OpId merge = addMoE(g, "moe", t, 4, 1, {},
                        [](Graph &gg, OpId s) {
                            return gg.addMatMul("ffn", s, 256, 256);
                        });
    g.addOutput("out", merge);
    const DynGraph dg = parseModel(g);
    costmodel::Mapper mapper(hw().tech);
    SchedulerConfig cfg;
    cfg.branchGrouping = true;
    cfg.tileSharing = false;
    Scheduler sched(dg, hw(), mapper, cfg);

    arch::Profiler prof;
    OpId sw = dg.switches()[0].switchOp;
    for (int i = 0; i < 32; ++i)
        prof.recordBranchLoads(
            sw, {80, 48, i % 16 == 0 ? 1 : 0, 0});

    const Schedule s = sched.build({}, {}, &prof);
    // The two rare experts' stages share one tile range.
    std::vector<const StageAssign *> rare;
    for (const StageAssign &st : s.segments[0]->stages) {
        const auto &name = dg.graph().node(st.op).name;
        if (name == "moe.ffn") // expert names collide; find by branch
            rare.push_back(&st);
    }
    // Find the stages of branches 2 and 3 via SwitchInfo.
    const SwitchInfo &swi = dg.switches()[0];
    const int s2 = s.segments[0]->stageOf(swi.branches[2][0]);
    const int s3 = s.segments[0]->stageOf(swi.branches[3][0]);
    ASSERT_GE(s2, 0);
    ASSERT_GE(s3, 0);
    EXPECT_EQ(
        s.segments[0]->stages[static_cast<std::size_t>(s2)].tiles,
        s.segments[0]->stages[static_cast<std::size_t>(s3)].tiles);
}

TEST(Scheduler, InitialKernelValuesUniformAndCapped)
{
    const auto bundle = models::buildDpsNet(128);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    SchedulerConfig cfg;
    Scheduler sched(dg, hw(), mapper, cfg);
    const auto values = sched.initialKernelValues();
    EXPECT_FALSE(values.empty());
    for (const auto &[op, vals] : values) {
        EXPECT_LE(vals.size(),
                  static_cast<std::size_t>(cfg.kernelBudgetPerOp) + 1);
        EXPECT_EQ(vals.back(), dg.maxDyn(op));
    }
}

TEST(Scheduler, ColdBuildMapperWorkIsPinned)
{
    // The mapper's deterministic work counters for one cold build (a
    // fresh mapper, no store cache): every (op, value, tile count)
    // the build compiles is one miss, and each miss costs only the
    // loop orders of its splits tied at the best (feasible, cycles)
    // pair. A change to either count is a change in search work.
    const auto bundle = models::buildSkipNet(128);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    (void)sched.build({}, sched.initialKernelValues(), nullptr);
    EXPECT_EQ(mapper.misses(), 138u);
    // An exhaustive split x order search costs 4662 here.
    EXPECT_EQ(mapper.costed(), 1068u);
}

} // namespace

// ---- delta re-scheduling -------------------------------------------

TEST(SchedulerDelta, AllOpsChangedMatchesFullBuild)
{
    const auto bundle = models::buildPabee(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const auto kv = sched.initialKernelValues();
    const Schedule base = sched.build({}, kv, nullptr);
    ASSERT_GT(base.segments.size(), 1u);

    std::vector<OpId> allOps;
    for (const auto &seg : base.segments)
        for (const auto &st : seg->stages)
            allOps.push_back(st.op);

    DeltaStats stats;
    const Schedule rebuilt =
        sched.buildDelta(base, {}, kv, nullptr, allOps, &stats);
    EXPECT_EQ(stats.segmentsTotal, base.segments.size());
    EXPECT_EQ(stats.segmentsRebuilt, base.segments.size());
    EXPECT_EQ(scheduleFingerprint(rebuilt), scheduleFingerprint(base));
}

TEST(SchedulerDelta, PureSpliceSharesBaseSegments)
{
    for (const auto &name : models::workloadNames()) {
        const auto bundle = models::buildByName(name, 64);
        const DynGraph dg = parseModel(bundle.graph);
        costmodel::Mapper mapper(hw().tech);
        Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
        kernels::KernelStoreCache cache;
        sched.setStoreCache(&cache);
        const auto kv = sched.initialKernelValues();
        const Schedule base = sched.build({}, kv, nullptr);

        const auto storeLookups = [&] {
            return cache.hits() + cache.misses();
        };
        const auto mapperLookups = [&] {
            return mapper.hits() + mapper.misses();
        };
        const std::uint64_t storesBefore = storeLookups();
        const std::uint64_t mapperBefore = mapperLookups();
        DeltaStats stats;
        const Schedule spliced =
            sched.buildDelta(base, {}, kv, nullptr, {}, &stats);
        EXPECT_EQ(stats.segmentsRebuilt, 0u) << name;
        EXPECT_EQ(stats.segmentsTotal, base.segments.size()) << name;
        // A pure splice never recompiles -- no store-cache traffic
        // and no mapping search at all -- and shares the base's
        // segment objects outright.
        EXPECT_EQ(storeLookups(), storesBefore) << name;
        EXPECT_EQ(mapperLookups(), mapperBefore) << name;
        ASSERT_EQ(spliced.segments.size(), base.segments.size());
        for (std::size_t i = 0; i < base.segments.size(); ++i)
            EXPECT_EQ(spliced.segments[i].get(),
                      base.segments[i].get())
                << name;
    }
}

TEST(SchedulerDelta, SingleChangedOpRebuildsOnlyItsSegment)
{
    const auto bundle = models::buildPabee(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const auto kv = sched.initialKernelValues();
    const Schedule base = sched.build({}, kv, nullptr);
    ASSERT_GT(base.segments.size(), 1u);

    // Pick an op from the last segment; only that segment rebuilds,
    // and with unchanged inputs the result is still byte-identical.
    const OpId changed = base.segments.back()->stages.front().op;
    DeltaStats stats;
    const Schedule delta =
        sched.buildDelta(base, {}, kv, nullptr, {changed}, &stats);
    EXPECT_EQ(stats.segmentsRebuilt, 1u);
    EXPECT_EQ(scheduleFingerprint(delta), scheduleFingerprint(base));
    for (std::size_t i = 0; i + 1 < base.segments.size(); ++i)
        EXPECT_EQ(delta.segments[i].get(), base.segments[i].get());
    EXPECT_NE(delta.segments.back().get(),
              base.segments.back().get());
}

TEST(SchedulerDelta, HealthyTileChangeInvalidatesPartition)
{
    // After a fail-over the partition differs, so buildDelta against
    // the healthy base must rebuild every segment (no stale splice).
    const auto bundle = models::buildPabee(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const auto kv = sched.initialKernelValues();
    const Schedule base = sched.build({}, kv, nullptr);

    std::vector<TileId> healthy;
    for (int t = 0; t < hw().tiles() - 12; ++t)
        healthy.push_back(static_cast<TileId>(t));
    sched.setHealthyTiles(healthy);
    DeltaStats stats;
    const Schedule degraded =
        sched.buildDelta(base, {}, kv, nullptr, {}, &stats);
    EXPECT_EQ(stats.segmentsRebuilt, stats.segmentsTotal);
    const Schedule full = sched.build({}, kv, nullptr);
    EXPECT_EQ(scheduleFingerprint(degraded), scheduleFingerprint(full));
}

TEST(SchedulerDelta, LongSpliceChainKeepsFingerprintAndIdentity)
{
    // The schedule search replays dozens of single-op deltas, each
    // against the previous delta's result. Fingerprints must stay
    // byte-identical to the original base the whole way down the
    // chain, and every untouched segment must keep pointer identity
    // with its immediate predecessor (splice, not copy).
    const auto bundle = models::buildPabee(64);
    const DynGraph dg = parseModel(bundle.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const auto kv = sched.initialKernelValues();
    const Schedule base = sched.build({}, kv, nullptr);
    ASSERT_GT(base.segments.size(), 1u);

    Schedule cur = base;
    for (int round = 0; round < 24; ++round) {
        const std::size_t si =
            static_cast<std::size_t>(round) % cur.segments.size();
        const OpId changed = cur.segments[si]->stages.front().op;
        DeltaStats stats;
        Schedule next =
            sched.buildDelta(cur, {}, kv, nullptr, {changed}, &stats);
        ASSERT_EQ(stats.segmentsRebuilt, 1u) << "round " << round;
        ASSERT_EQ(scheduleFingerprint(next), scheduleFingerprint(base))
            << "round " << round;
        ASSERT_EQ(next.segments.size(), cur.segments.size());
        for (std::size_t i = 0; i < cur.segments.size(); ++i) {
            if (i == si)
                EXPECT_NE(next.segments[i].get(),
                          cur.segments[i].get());
            else
                EXPECT_EQ(next.segments[i].get(),
                          cur.segments[i].get())
                    << "round " << round << " segment " << i;
        }
        cur = std::move(next);
    }
}

/**
 * @file
 * Unit tests for the dynamism-aware scheduler (Section V):
 * segmentation atoms and capacity, frequency-weighted allocation
 * (allocateTiles against the two loops it replaced), weight
 * residency, tile sharing pairs, branch grouping, kernel store
 * construction, and profiled builds pinned to recorded digests.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "arch/profiler.hh"
#include "common/rng.hh"
#include "core/sampling.hh"
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

/** FNV-1a over a schedule fingerprint. */
std::uint64_t
digest(const Schedule &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (unsigned char c : scheduleFingerprint(s)) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

/**
 * Profiled Adyna builds (grouping and sharing on) of the five models
 * at batch 8 and 128, on the full grid and on 4 healthy tiles. On 4
 * tiles allocation units outnumber the tiles and fold: at batch 8 in
 * 7 of FBSNet's segments, 2 of Tutel-MoE's and 1 of DPSNet's. The
 * digests were recorded before the allocation rule moved into
 * allocateTiles; a change to the rule moves them.
 */
TEST(Scheduler, ProfiledBuildsMatchParentDigests)
{
    struct Pin
    {
        const char *model;
        std::int64_t batch;
        std::uint64_t full;
        std::uint64_t fourTiles;
    };
    const Pin pins[] = {
        {"skipnet", 8, 0x9f96bc587a379e8fULL, 0x3c144850dfdce40cULL},
        {"pabee", 8, 0x6d0f109e01b05165ULL, 0x53e2a515cd9eeeecULL},
        {"fbsnet", 8, 0xcec594fd51b2a424ULL, 0x41bfe458d4b41fb6ULL},
        {"tutel-moe", 8, 0x09881d52f82ce076ULL, 0xd03ac91284cf46e8ULL},
        {"dpsnet", 8, 0x08da2a03bbf2d26bULL, 0xdfaacc8c1f0004f1ULL},
        {"skipnet", 128, 0x119a83a1f34eef24ULL, 0x93c5bf7cd0b4e260ULL},
        {"pabee", 128, 0x7930732942d94209ULL, 0x23f3675ad4ff3d13ULL},
        {"fbsnet", 128, 0xd465d16881365aa9ULL, 0x753538aa4ff7960fULL},
        {"tutel-moe", 128, 0x74eaf1a2490d36aeULL, 0x069c82b59721c74eULL},
        {"dpsnet", 128, 0x4791ddf4bfb6a07fULL, 0xb88711dc2818d188ULL},
    };
    for (const Pin &pin : pins) {
        const auto bundle = models::buildByName(pin.model, pin.batch);
        const DynGraph dg = parseModel(bundle.graph);
        costmodel::Mapper mapper(hw().tech);
        kernels::KernelStoreCache stores;
        Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
        sched.setStoreCache(&stores);
        trace::TraceConfig tc = bundle.traceConfig;
        tc.batchSize = pin.batch;
        trace::TraceGenerator gen(dg, tc, 7);
        arch::Profiler prof;
        std::map<OpId, double> exps;
        auto kv = sched.initialKernelValues();
        profileOffline(
            prof, dg, 40, [&](int) { return gen.next(); }, true, exps,
            kv);
        const std::uint64_t dFull = digest(sched.build(exps, kv, &prof));
        EXPECT_EQ(dFull, pin.full)
            << pin.model << " at batch " << pin.batch;
        sched.setHealthyTiles({0, 1, 2, 3});
        const std::uint64_t dFour = digest(sched.build(exps, kv, &prof));
        EXPECT_EQ(dFour, pin.fourTiles)
            << pin.model << " at batch " << pin.batch << " on 4 tiles";
    }
}

// ---- allocateTiles against the loops it replaced -------------------

/**
 * The allocation loop Scheduler::buildSegment ran before
 * allocateTiles: units keyed through op -> group and op -> unit
 * maps, renumbered on every fold. Positions stand in for op ids.
 */
std::vector<AllocUnit>
schedulerLoop(const std::vector<double> &work,
              const std::vector<int> &group, int T)
{
    std::map<OpId, int> groupOf;
    for (std::size_t i = 0; i < group.size(); ++i)
        if (group[i] >= 0)
            groupOf[static_cast<OpId>(i)] = group[i];

    struct Unit
    {
        std::vector<OpId> ops;
        double work = 0.0;
        int tiles = 1;
    };
    std::vector<Unit> units;
    std::map<int, std::size_t> groupUnit;
    std::map<OpId, std::size_t> unitOf;
    for (std::size_t i = 0; i < work.size(); ++i) {
        const OpId op = static_cast<OpId>(i);
        const auto git = groupOf.find(op);
        if (git != groupOf.end()) {
            const auto uit = groupUnit.find(git->second);
            std::size_t ui;
            if (uit == groupUnit.end()) {
                ui = units.size();
                units.push_back({});
                groupUnit[git->second] = ui;
            } else {
                ui = uit->second;
            }
            units[ui].ops.push_back(op);
            units[ui].work += work[i];
            unitOf[op] = ui;
        } else {
            unitOf[op] = units.size();
            units.push_back({{op}, work[i], 1});
        }
    }
    while (static_cast<int>(units.size()) > T) {
        std::size_t a = 0, b = 1;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (units[i].work < units[a].work) {
                b = a;
                a = i;
            } else if (i != a && units[i].work < units[b].work) {
                b = i;
            }
        }
        if (a > b)
            std::swap(a, b);
        units[a].ops.insert(units[a].ops.end(), units[b].ops.begin(),
                            units[b].ops.end());
        units[a].work += units[b].work;
        for (auto &[op, ui] : unitOf) {
            if (ui == b)
                ui = a;
            else if (ui > b)
                --ui;
        }
        for (auto &[gid, ui] : groupUnit) {
            if (ui == b)
                ui = a;
            else if (ui > b)
                --ui;
        }
        units.erase(units.begin() + static_cast<std::ptrdiff_t>(b));
    }
    double totalWork = 0.0;
    for (const Unit &u : units)
        totalWork += u.work;
    if (totalWork <= 0.0)
        totalWork = 1.0;
    std::vector<double> fractional(units.size());
    int used = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const double ideal =
            units[i].work / totalWork * static_cast<double>(T);
        units[i].tiles = std::max(1, static_cast<int>(ideal));
        fractional[i] = ideal - static_cast<double>(units[i].tiles);
        used += units[i].tiles;
    }
    while (used > T) {
        const auto it = std::max_element(
            units.begin(), units.end(),
            [](const Unit &a, const Unit &b) { return a.tiles < b.tiles; });
        --it->tiles;
        --used;
    }
    while (used < T) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < units.size(); ++i)
            if (fractional[i] > fractional[best])
                best = i;
        ++units[best].tiles;
        fractional[best] -= 1.0;
        ++used;
    }

    std::vector<AllocUnit> out;
    for (const Unit &u : units) {
        AllocUnit au;
        for (OpId op : u.ops)
            au.members.push_back(static_cast<int>(op));
        au.work = u.work;
        au.tiles = u.tiles;
        out.push_back(std::move(au));
    }
    return out;
}

/** The allocation loop search::PlanTree::segmentCost ran before
 * allocateTiles: index-based units with a group -> unit vector. */
std::vector<AllocUnit>
surrogateLoop(const std::vector<double> &work,
              const std::vector<int> &group, int T)
{
    int groups = 0;
    for (int g : group)
        groups = std::max(groups, g + 1);
    struct Unit
    {
        double allocW = 0.0;
        int tiles = 1;
        std::vector<int> opsIdx;
    };
    std::vector<Unit> units;
    std::vector<int> groupUnit(static_cast<std::size_t>(groups), -1);
    for (std::size_t o = 0; o < work.size(); ++o) {
        const int gid = group[o];
        std::size_t ui;
        if (gid >= 0 && groupUnit[static_cast<std::size_t>(gid)] >= 0) {
            ui = static_cast<std::size_t>(
                groupUnit[static_cast<std::size_t>(gid)]);
        } else {
            ui = units.size();
            units.push_back({});
            if (gid >= 0)
                groupUnit[static_cast<std::size_t>(gid)] =
                    static_cast<int>(ui);
        }
        units[ui].allocW += work[o];
        units[ui].opsIdx.push_back(static_cast<int>(o));
    }
    while (static_cast<int>(units.size()) > T) {
        std::size_t a = 0, b = 1;
        for (std::size_t i = 0; i < units.size(); ++i) {
            if (units[i].allocW < units[a].allocW) {
                b = a;
                a = i;
            } else if (i != a && units[i].allocW < units[b].allocW) {
                b = i;
            }
        }
        if (a > b)
            std::swap(a, b);
        units[a].allocW += units[b].allocW;
        units[a].opsIdx.insert(units[a].opsIdx.end(),
                               units[b].opsIdx.begin(),
                               units[b].opsIdx.end());
        units.erase(units.begin() + static_cast<std::ptrdiff_t>(b));
    }
    double totalAlloc = 0.0;
    for (const Unit &u : units)
        totalAlloc += u.allocW;
    if (totalAlloc <= 0.0)
        totalAlloc = 1.0;
    std::vector<double> fractional(units.size());
    int used = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        const double ideal =
            units[i].allocW / totalAlloc * static_cast<double>(T);
        units[i].tiles = std::max(1, static_cast<int>(ideal));
        fractional[i] = ideal - static_cast<double>(units[i].tiles);
        used += units[i].tiles;
    }
    while (used > T) {
        std::size_t big = 0;
        for (std::size_t i = 1; i < units.size(); ++i)
            if (units[i].tiles > units[big].tiles)
                big = i;
        --units[big].tiles;
        --used;
    }
    while (used < T) {
        std::size_t best = 0;
        for (std::size_t i = 1; i < units.size(); ++i)
            if (fractional[i] > fractional[best])
                best = i;
        ++units[best].tiles;
        fractional[best] -= 1.0;
        ++used;
    }

    std::vector<AllocUnit> out;
    for (const Unit &u : units)
        out.push_back(AllocUnit{u.opsIdx, u.allocW, u.tiles});
    return out;
}

/**
 * allocateTiles gives bit for bit what both replaced loops gave, on
 * seeded random segments: 1-40 positions, 0-4 branch groups, 1 to
 * twice the unit count tiles (so units fold about half the time),
 * and work drawn from a few small integers half the time, so ties
 * and zero work reach the fold, the trim and the remainder pass.
 */
TEST(AllocateTiles, MatchesBothReplacedLoopsBitForBit)
{
    Rng rng(0x5eed);
    for (int c = 0; c < 4000; ++c) {
        const int n = static_cast<int>(rng.uniformInt(1, 40));
        const int groups = static_cast<int>(rng.uniformInt(0, 4));
        const bool ties = rng.bernoulli(0.5);
        std::vector<double> work(static_cast<std::size_t>(n));
        std::vector<int> group(static_cast<std::size_t>(n), -1);
        std::set<int> used;
        int single = 0;
        for (int i = 0; i < n; ++i) {
            const auto at = static_cast<std::size_t>(i);
            work[at] = ties ? static_cast<double>(rng.uniformInt(0, 3))
                            : rng.uniform(0.0, 1e6);
            if (groups > 0 && rng.bernoulli(0.4)) {
                group[at] =
                    static_cast<int>(rng.uniformInt(0, groups - 1));
                used.insert(group[at]);
            } else {
                ++single;
            }
        }
        const int unitCount = single + static_cast<int>(used.size());
        const int tiles =
            static_cast<int>(rng.uniformInt(1, 2 * unitCount));

        const std::vector<AllocUnit> got =
            allocateTiles(work, group, tiles);
        for (const auto &ref : {schedulerLoop(work, group, tiles),
                                surrogateLoop(work, group, tiles)}) {
            ASSERT_EQ(got.size(), ref.size()) << "case " << c;
            for (std::size_t u = 0; u < got.size(); ++u) {
                EXPECT_EQ(got[u].members, ref[u].members)
                    << "case " << c << " unit " << u;
                EXPECT_EQ(got[u].work, ref[u].work)
                    << "case " << c << " unit " << u;
                EXPECT_EQ(got[u].tiles, ref[u].tiles)
                    << "case " << c << " unit " << u;
            }
            if (HasFailure())
                return;
        }
    }
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

/**
 * @file
 * Unit tests for the anytime schedule search (src/search): the
 * cheap-mutate plan tree's apply/revert exactness and incremental
 * cost maintenance, fingerprint identity, materialized-override
 * validity, budget enforcement, the never-worse guarantee, and
 * byte-stable results across thread-pool widths.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "arch/profiler.hh"
#include "baselines/designs.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/sampling.hh"
#include "core/validate.hh"
#include "graph/parser.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "search/search.hh"
#include "search/tree.hh"
#include "trace/trace.hh"

namespace {

using namespace adyna;
using namespace adyna::search;

const arch::HwConfig &
hw()
{
    static const arch::HwConfig cfg;
    return cfg;
}

/** One workload wired exactly like the search_sweep bench: profiled
 * expectations, a heuristic base schedule, and a probe drawn from
 * the same trace stream. */
struct SearchFixture
{
    explicit SearchFixture(const std::string &model,
                           std::int64_t batch = 64)
        : bundle(models::buildByName(model, batch)),
          dg(graph::parseModel(bundle.graph)),
          mapper(hw().tech),
          scheduler(
              dg, hw(), mapper,
              baselines::schedulerConfig(baselines::Design::Adyna))
    {
        scheduler.setStoreCache(&storeCache);
        trace::TraceConfig tc = bundle.traceConfig;
        tc.batchSize = batch;
        kernelValues = scheduler.initialKernelValues();
        trace::TraceGenerator gen(dg, tc, 0x9e3779b97f4a7c15ULL);
        core::profileOffline(
            prof, dg, 24, [&](int) { return gen.next(); }, true,
            expectations, kernelValues);
        base = scheduler.build(expectations, kernelValues, &prof);
        for (int b = 0; b < 6; ++b)
            probe.push_back(gen.next());
    }

    models::ModelBundle bundle;
    graph::DynGraph dg;
    costmodel::Mapper mapper;
    kernels::KernelStoreCache storeCache;
    core::Scheduler scheduler;
    arch::Profiler prof;
    std::map<OpId, double> expectations;
    std::map<OpId, std::vector<std::int64_t>> kernelValues;
    core::Schedule base;
    std::vector<trace::BatchRouting> probe;
};

SearchContext
makeContext(const SearchFixture &f)
{
    return SearchContext(f.scheduler, f.dg, hw(), f.expectations,
                         &f.prof);
}

/** A feasible random mutation (retries until apply succeeds). */
Mutation
randomMutation(const SearchContext &ctx, PlanTree &tree,
               Rng &rng, Undo &undo)
{
    for (;;) {
        Mutation m;
        const double r = rng.uniform();
        if (r < 0.3 && ctx.numAtoms() > 1) {
            m.kind = Mutation::kBoundaryToggle;
            m.index = static_cast<int>(
                rng.uniformInt(0, ctx.numAtoms() - 2));
        } else if (r < 0.4 && ctx.numSwitches() > 0) {
            m.kind = Mutation::kRegroup;
            m.index = static_cast<int>(
                rng.uniformInt(0, ctx.numSwitches() - 1));
            m.delta = static_cast<int>(rng.uniformInt(0, 2));
        } else {
            m.kind = Mutation::kTileNudge;
            m.index = static_cast<int>(
                rng.uniformInt(0, ctx.numOps() - 1));
            m.delta = rng.uniform() < 0.5 ? 1 : -1;
        }
        if (tree.apply(m, undo))
            return m;
    }
}

// ------------------------------------------------------------ PlanTree

TEST(PlanTree, ApplyRevertRestoresStateAndCostExactly)
{
    const SearchFixture f("pabee");
    const SearchContext ctx = makeContext(f);
    PlanTree tree(ctx);
    const TreeState before = tree.state();
    const double costBefore = tree.cost();
    const std::uint64_t fpBefore = tree.fingerprint();

    Rng rng(17);
    std::vector<Undo> undos;
    for (int i = 0; i < 200; ++i) {
        Undo u;
        randomMutation(ctx, tree, rng, u);
        undos.push_back(std::move(u));
    }
    // Unwinding the whole stack must restore state, fingerprint and
    // cached cost bit-exactly -- no recomputation drift.
    for (auto it = undos.rbegin(); it != undos.rend(); ++it)
        tree.revert(*it);
    EXPECT_EQ(tree.fingerprint(), fpBefore);
    EXPECT_EQ(tree.cost(), costBefore);
    const TreeState after = tree.state();
    EXPECT_EQ(after.cut, before.cut);
    EXPECT_EQ(after.biasExp, before.biasExp);
    EXPECT_EQ(after.groupMode, before.groupMode);
}

TEST(PlanTree, IncrementalCostMatchesFullRecost)
{
    const SearchFixture f("pabee");
    const SearchContext ctx = makeContext(f);
    PlanTree tree(ctx);
    Rng rng(23);
    for (int i = 0; i < 120; ++i) {
        Undo u;
        randomMutation(ctx, tree, rng, u);
        const double incremental = tree.cost();
        const double full = tree.recostAll();
        EXPECT_NEAR(incremental, full,
                    1e-6 * std::max(1.0, std::abs(full)))
            << "after mutation " << i;
    }
}

TEST(PlanTree, FingerprintIsStateIdentity)
{
    const SearchFixture f("skipnet");
    const SearchContext ctx = makeContext(f);
    PlanTree tree(ctx);
    const TreeState s0 = tree.state();
    EXPECT_EQ(PlanTree::fingerprint(s0), tree.fingerprint());

    Rng rng(5);
    Undo u;
    randomMutation(ctx, tree, rng, u);
    EXPECT_NE(tree.fingerprint(), PlanTree::fingerprint(s0));
    tree.revert(u);
    EXPECT_EQ(tree.fingerprint(), PlanTree::fingerprint(s0));

    // setState on a fresh tree reproduces the same identity.
    PlanTree other(ctx);
    other.setState(s0);
    EXPECT_EQ(other.fingerprint(), PlanTree::fingerprint(s0));
}

TEST(PlanTree, DefaultStateReproducesHeuristicPartition)
{
    const SearchFixture f("pabee");
    const SearchContext ctx = makeContext(f);
    PlanTree tree(ctx);
    const core::PlanOverride ov =
        PlanTree::toOverride(ctx, tree.state());
    ASSERT_EQ(ov.partition.size(), f.base.segments.size());
    for (std::size_t i = 0; i < ov.partition.size(); ++i) {
        std::vector<OpId> segOps;
        for (const auto &st : f.base.segments[i]->stages)
            segOps.push_back(st.op);
        EXPECT_EQ(ov.partition[i], segOps) << "segment " << i;
    }
}

// ------------------------------------------------------ ScheduleSearch

SearchConfig
smallConfig()
{
    SearchConfig scfg;
    scfg.chains = 4;
    scfg.mutationBudget = 400;
    scfg.materializeTop = 4;
    scfg.seed = 7;
    return scfg;
}

TEST(ScheduleSearch, NeverWorseThanHeuristicAndValid)
{
    for (const char *model : {"pabee", "skipnet"}) {
        SearchFixture f(model);
        ScheduleSearch searcher(
            f.dg, hw(), f.mapper,
            baselines::execPolicy(baselines::Design::Adyna),
            smallConfig());
        core::SearchStats stats;
        const auto res = searcher.run(
            f.scheduler, f.base, nullptr, f.expectations,
            f.kernelValues, &f.prof, f.probe, &f.storeCache,
            &stats);
        EXPECT_LE(res.searchedCost, res.heuristicCost) << model;
        EXPECT_EQ(res.improved,
                  res.searchedCost < res.heuristicCost);
        // The winning schedule must be engine-legal either way.
        const auto issues =
            core::validateSchedule(res.schedule, f.dg, hw());
        EXPECT_TRUE(issues.empty())
            << core::issuesToString(issues);
        EXPECT_EQ(stats.candidatesTried, 400u);
        EXPECT_GT(stats.materialized, 0u);
    }
}

TEST(ScheduleSearch, ByteStableAcrossThreadPoolWidths)
{
    auto runWith = [](int jobs, core::SearchStats &stats) {
        SearchFixture f("pabee");
        ScheduleSearch searcher(
            f.dg, hw(), f.mapper,
            baselines::execPolicy(baselines::Design::Adyna),
            smallConfig());
        ThreadPool pool(jobs);
        searcher.setThreadPool(&pool);
        return searcher.run(f.scheduler, f.base, nullptr,
                            f.expectations, f.kernelValues, &f.prof,
                            f.probe, &f.storeCache, &stats);
    };
    core::SearchStats s1, s4;
    const auto a = runWith(1, s1);
    const auto b = runWith(4, s4);
    EXPECT_EQ(a.searchedCost, b.searchedCost);
    EXPECT_EQ(a.heuristicCost, b.heuristicCost);
    EXPECT_EQ(a.improved, b.improved);
    EXPECT_EQ(PlanTree::fingerprint(a.tree),
              PlanTree::fingerprint(b.tree));
    EXPECT_EQ(s1.candidatesTried, s4.candidatesTried);
    EXPECT_EQ(s1.candidatesAccepted, s4.candidatesAccepted);
    EXPECT_EQ(s1.materialized, s4.materialized);
    EXPECT_EQ(s1.budgetSpentCycles, s4.budgetSpentCycles);
}

TEST(ScheduleSearch, RespectsCycleBudget)
{
    SearchFixture f("pabee");
    SearchConfig scfg = smallConfig();
    // Enough for the mutations and the base evaluation but at most
    // a couple of materializations.
    scfg.cycleBudget = scfg.mutationBudget * kMutateCycles +
                       4 * kMaterializeCycles;
    ScheduleSearch searcher(
        f.dg, hw(), f.mapper,
        baselines::execPolicy(baselines::Design::Adyna), scfg);
    core::SearchStats stats;
    const auto res = searcher.run(
        f.scheduler, f.base, nullptr, f.expectations, f.kernelValues,
        &f.prof, f.probe, &f.storeCache, &stats);
    EXPECT_LE(res.spentCycles, scfg.cycleBudget);
    EXPECT_LE(stats.budgetSpentCycles, scfg.cycleBudget);
    EXPECT_LE(res.searchedCost, res.heuristicCost);
}

TEST(ScheduleSearch, TinyBudgetFallsBackToHeuristic)
{
    SearchFixture f("skipnet");
    SearchConfig scfg = smallConfig();
    scfg.cycleBudget = 1; // can't afford a single mutation
    ScheduleSearch searcher(
        f.dg, hw(), f.mapper,
        baselines::execPolicy(baselines::Design::Adyna), scfg);
    core::SearchStats stats;
    const auto res = searcher.run(
        f.scheduler, f.base, nullptr, f.expectations, f.kernelValues,
        &f.prof, f.probe, &f.storeCache, &stats);
    EXPECT_FALSE(res.improved);
    EXPECT_EQ(res.searchedCost, res.heuristicCost);
    EXPECT_LE(res.spentCycles, scfg.cycleBudget);
    EXPECT_TRUE(stats.budgetExhausted);
}

TEST(ScheduleSearch, RestoresSchedulerOverridePointer)
{
    SearchFixture f("skipnet");
    ScheduleSearch searcher(
        f.dg, hw(), f.mapper,
        baselines::execPolicy(baselines::Design::Adyna),
        smallConfig());
    // The scheduler enters with no override installed; the search
    // must not leave its scratch override behind.
    (void)searcher.run(f.scheduler, f.base, nullptr, f.expectations,
                       f.kernelValues, &f.prof, f.probe,
                       &f.storeCache, nullptr);
    const core::Schedule again =
        f.scheduler.build(f.expectations, f.kernelValues, &f.prof);
    EXPECT_EQ(again.segments.size(), f.base.segments.size());
}

} // namespace

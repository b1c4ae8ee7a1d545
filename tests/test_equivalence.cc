/**
 * @file
 * Behaviour-preservation tests for the perf optimizations: the
 * schedule-plan cache (with the precomputed producer index), the
 * sweep-shared mapper and the kernel-store cache must all produce
 * byte-identical run reports to the seed path (legacy per-period
 * planner, private per-run mapper, compile-from-scratch stores) on
 * every workload and on the non-default execution policies
 * (worst-case execution, pipelining off).
 */

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "arch/chip.hh"
#include "baselines/designs.hh"
#include "core/report_io.hh"
#include "core/system.hh"
#include "graph/parser.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"

namespace {

using namespace adyna;
using baselines::Design;

/** Which cache layers a run enables. The default is the seed path:
 * everything off, so each test states exactly what it turns on. */
struct RunCfg
{
    bool planCache = false;
    bool storeCache = false;
};

/** Serialized report (with per-batch series) for one run. The cache
 * counters are not serialized, so this captures exactly the
 * simulation-visible outputs. @p shared / @p stores, when non-null,
 * share mapper-memo / compiled-store state across runs. */
std::string
runReport(const std::string &workload, Design design, int batches,
          const RunCfg &cfg, costmodel::Mapper *shared = nullptr,
          kernels::KernelStoreCache *stores = nullptr)
{
    const arch::HwConfig hw;
    const auto bundle = models::buildByName(workload, 64);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 64;
    auto scfg = baselines::schedulerConfig(design);
    scfg.storeCache = cfg.storeCache;
    auto pol = baselines::execPolicy(design);
    pol.planCache = cfg.planCache;
    core::System sys(dg, tc, hw, scfg, pol,
                     baselines::runOptions(design, batches, 1),
                     baselines::designName(design));
    if (shared)
        sys.setSharedMapper(shared);
    if (stores)
        sys.setSharedStoreCache(stores);
    return core::toJson(sys.run(), /*include_batches=*/true);
}

} // namespace

/** Plan cache alone: identical reports on all five workloads, with
 * enough batches to cross a reconfiguration boundary (the cache must
 * key on schedule content, not just the period index). */
TEST(Equivalence, PlanCacheMatchesLegacyPlannerAllWorkloads)
{
    for (const auto &name : models::workloadNames()) {
        const auto legacy =
            runReport(name, Design::Adyna, 45, RunCfg{});
        const auto cached = runReport(name, Design::Adyna, 45,
                                      RunCfg{.planCache = true});
        EXPECT_EQ(legacy, cached) << "workload " << name;
    }
}

/** Shared mapper alone: the memo only caches deterministic search
 * results, so sharing across runs must not change any report. */
TEST(Equivalence, SharedMapperMatchesPrivateMapper)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    for (const auto &name : models::workloadNames()) {
        const auto priv =
            runReport(name, Design::Adyna, 20, RunCfg{});
        const auto shr = runReport(name, Design::Adyna, 20, RunCfg{},
                                   &shared);
        EXPECT_EQ(priv, shr) << "workload " << name;
    }
    // The second run of each workload hits the warm memo.
    EXPECT_GT(shared.hits(), 0u);
}

/** Kernel-store cache alone: cold (first run populates the cache)
 * and warm (second run hits it) must both match the
 * compile-from-scratch path on every workload. */
TEST(Equivalence, StoreCacheMatchesScratchCompile)
{
    kernels::KernelStoreCache stores;
    for (const auto &name : models::workloadNames()) {
        const auto seed = runReport(name, Design::Adyna, 20,
                                    RunCfg{});
        const auto cold = runReport(name, Design::Adyna, 20,
                                    RunCfg{.storeCache = true},
                                    nullptr, &stores);
        const auto warm = runReport(name, Design::Adyna, 20,
                                    RunCfg{.storeCache = true},
                                    nullptr, &stores);
        EXPECT_EQ(seed, cold) << "workload " << name;
        EXPECT_EQ(seed, warm) << "workload " << name;
    }
    EXPECT_GT(stores.hits(), 0u);
    EXPECT_GT(stores.misses(), 0u);
}

/** Every layer together, re-using one mapper and one store cache
 * across runs the way the bench sweeps do. */
TEST(Equivalence, CachedSweepMatchesSeedPath)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    kernels::KernelStoreCache stores;
    const RunCfg all{.planCache = true, .storeCache = true};
    for (const auto &name : models::workloadNames()) {
        const auto seed = runReport(name, Design::Adyna, 45,
                                    RunCfg{});
        const auto fast = runReport(name, Design::Adyna, 45, all,
                                    &shared, &stores);
        EXPECT_EQ(seed, fast) << "workload " << name;
    }
}

/** Non-default policies: MTile runs worst-case shapes, MTenant turns
 * pipelining off -- both exercise planSegment branches the Adyna
 * config does not. */
TEST(Equivalence, BaselineDesignPoliciesMatch)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    kernels::KernelStoreCache stores;
    const RunCfg all{.planCache = true, .storeCache = true};
    for (Design d : {Design::MTile, Design::MTenant,
                     Design::FullKernel}) {
        const auto seed = runReport("skipnet", d, 45, RunCfg{});
        const auto fast = runReport("skipnet", d, 45, all, &shared,
                                    &stores);
        EXPECT_EQ(seed, fast)
            << "design " << baselines::designName(d);
    }
}

/** Counters surface in the report and reflect real activity. */
TEST(Equivalence, CacheCountersReported)
{
    const arch::HwConfig hw;
    const auto bundle = models::buildByName("skipnet", 64);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 64;
    kernels::KernelStoreCache stores;
    core::System sys(dg, tc, hw,
                     baselines::schedulerConfig(Design::Adyna),
                     baselines::execPolicy(Design::Adyna),
                     baselines::runOptions(Design::Adyna, 10, 1),
                     "Adyna");
    sys.setSharedStoreCache(&stores);
    const auto rep = sys.run();
    EXPECT_GT(rep.mapperMisses, 0u);
    // Reconfigurations re-map the same ops, so a multi-period run
    // sees hits even with a fresh private mapper.
    EXPECT_GT(rep.mapperHits + rep.mapperMisses, rep.mapperMisses);
    // The default config compiles stores through the cache.
    EXPECT_GT(rep.storeMisses, 0u);
    // Counters stay out of the byte-stable report serialization and
    // travel in cacheStatsJson instead.
    const auto json = core::toJson(rep, true);
    EXPECT_EQ(json.find("mapper_hits"), std::string::npos);
    const auto stats = core::cacheStatsJson(rep);
    EXPECT_NE(stats.find("\"store_misses\""), std::string::npos);
}

/** Without setSharedStoreCache every run compiles into a cache of its
 * own, so two identical back-to-back runs report the same cache
 * counters: the second run must not hit stores the first compiled. */
TEST(Equivalence, BackToBackSystemRunsWithoutSharedStoreCacheMatch)
{
    const arch::HwConfig hw;
    const auto bundle = models::buildByName("skipnet", 64);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 64;
    const auto run = [&] {
        core::System sys(dg, tc, hw,
                         baselines::schedulerConfig(Design::Adyna),
                         baselines::execPolicy(Design::Adyna),
                         baselines::runOptions(Design::Adyna, 10, 1),
                         "Adyna");
        return sys.run();
    };
    const auto first = run();
    const auto second = run();
    EXPECT_GT(first.storeMisses, 0u);
    EXPECT_EQ(core::cacheStatsJson(first), core::cacheStatsJson(second));
    EXPECT_EQ(core::toJson(first, true), core::toJson(second, true));
}

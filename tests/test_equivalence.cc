/**
 * @file
 * Behaviour-preservation tests for the cache layers: the
 * sweep-shared mapper and the kernel-store cache, alone, together
 * and shared by concurrent runs, must all produce byte-identical run
 * reports to the seed path (private per-run mapper and store cache,
 * one run at a time) on every workload and on the non-default
 * execution policies (worst-case execution, pipelining off). Cold,
 * warm and cache-less schedule builds must agree down to the encoded
 * kernel images.
 */

#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/chip.hh"
#include "baselines/designs.hh"
#include "common/parallel.hh"
#include "core/report_io.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
#include "graph/parser.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "schedule_fingerprint.hh"

namespace {

using namespace adyna;
using baselines::Design;

/** Serialized report (with per-batch series) for one run. The cache
 * counters are not serialized, so this captures exactly the
 * simulation-visible outputs. @p shared / @p stores, when non-null,
 * share mapper-memo / compiled-store state across runs. */
std::string
runReport(const std::string &workload, Design design, int batches,
          costmodel::Mapper *shared = nullptr,
          kernels::KernelStoreCache *stores = nullptr)
{
    const arch::HwConfig hw;
    const auto bundle = models::buildByName(workload, 64);
    const auto dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 64;
    core::System sys(dg, tc, hw, baselines::schedulerConfig(design),
                     baselines::execPolicy(design),
                     baselines::runOptions(design, batches, 1),
                     baselines::designName(design));
    if (shared)
        sys.setSharedMapper(shared);
    if (stores)
        sys.setSharedStoreCache(stores);
    return core::toJson(sys.run(), /*include_batches=*/true);
}

} // namespace

/** Shared mapper alone: the memo only caches deterministic search
 * results, so sharing across runs must not change any report. */
TEST(Equivalence, SharedMapperMatchesPrivateMapper)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    for (const auto &name : models::workloadNames()) {
        const auto priv = runReport(name, Design::Adyna, 20);
        const auto shr = runReport(name, Design::Adyna, 20, &shared);
        EXPECT_EQ(priv, shr) << "workload " << name;
    }
    // The second run of each workload hits the warm memo.
    EXPECT_GT(shared.hits(), 0u);
}

/** Kernel-store cache alone, at the Scheduler: a build with no
 * cache, one through a cold cache (it compiles and populates) and
 * one through the same cache warm must give the same schedule down
 * to the encoded kernel images on every workload. The warm build
 * compiles nothing: no mapping search and no store miss. */
TEST(Equivalence, StoreCacheMatchesScratchCompile)
{
    const arch::HwConfig hw;
    const auto scfg = baselines::schedulerConfig(Design::Adyna);
    const std::map<OpId, double> expectations; // worst-case weights
    for (const auto &name : models::workloadNames()) {
        const auto bundle = models::buildByName(name, 128);
        const auto dg = graph::parseModel(bundle.graph);

        costmodel::Mapper scratchMapper(hw.tech);
        core::Scheduler scratch(dg, hw, scratchMapper, scfg);
        const auto kv = scratch.initialKernelValues();
        const std::string want = test::scheduleFingerprint(
            scratch.build(expectations, kv, nullptr));

        costmodel::Mapper mapper(hw.tech);
        kernels::KernelStoreCache stores;
        core::Scheduler cached(dg, hw, mapper, scfg);
        cached.setStoreCache(&stores);
        EXPECT_EQ(test::scheduleFingerprint(
                      cached.build(expectations, kv, nullptr)),
                  want)
            << "cold build, workload " << name;
        EXPECT_GT(stores.misses(), 0u) << name;
        EXPECT_GT(mapper.misses(), 0u) << name;

        const std::uint64_t lookups0 = mapper.hits() + mapper.misses();
        const std::uint64_t storeMisses0 = stores.misses();
        EXPECT_EQ(test::scheduleFingerprint(
                      cached.build(expectations, kv, nullptr)),
                  want)
            << "warm build, workload " << name;
        EXPECT_EQ(mapper.hits() + mapper.misses(), lookups0) << name;
        EXPECT_EQ(stores.misses(), storeMisses0) << name;
        EXPECT_GT(stores.hits(), 0u) << name;
    }
}

/** Every layer together, re-using one mapper and one store cache
 * across runs the way the bench sweeps do. */
TEST(Equivalence, CachedSweepMatchesSeedPath)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    kernels::KernelStoreCache stores;
    for (const auto &name : models::workloadNames()) {
        const auto seed = runReport(name, Design::Adyna, 45);
        const auto fast =
            runReport(name, Design::Adyna, 45, &shared, &stores);
        EXPECT_EQ(seed, fast) << "workload " << name;
    }
}

/** The --jobs sweep: every workload x design, run concurrently on a
 * 4-worker pool whose runs all share one mapper and one store cache,
 * must reproduce the serial private-cache
 * reports byte for byte. 45 batches cross the 40-batch
 * reconfiguration, so re-schedules race on the shared caches too. */
TEST(Equivalence, ConcurrentSharedCacheSweepMatchesSerial)
{
    struct Cell
    {
        std::string workload;
        Design design;
    };
    std::vector<Cell> cells;
    for (const auto &name : models::workloadNames())
        for (Design d : baselines::allDesigns())
            cells.push_back({name, d});

    std::vector<std::string> serial;
    for (const Cell &c : cells)
        serial.push_back(runReport(c.workload, c.design, 45));

    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    kernels::KernelStoreCache stores;
    ThreadPool pool(4);
    const std::vector<std::string> concurrent =
        pool.parallelMap(cells.size(), [&](std::size_t i) {
            return runReport(cells[i].workload, cells[i].design, 45,
                             &shared, &stores);
        });
    ASSERT_EQ(concurrent.size(), serial.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        EXPECT_EQ(concurrent[i], serial[i])
            << cells[i].workload << " / "
            << baselines::designName(cells[i].design);
    EXPECT_GT(shared.hits(), 0u);
    EXPECT_GT(stores.hits(), 0u);
}

/** Non-default policies: MTile runs worst-case shapes, MTenant turns
 * pipelining off -- both exercise engine branches the Adyna config
 * does not. */
TEST(Equivalence, BaselineDesignPoliciesMatch)
{
    const arch::HwConfig hw;
    costmodel::Mapper shared(hw.tech);
    kernels::KernelStoreCache stores;
    for (Design d : {Design::MTile, Design::MTenant,
                     Design::FullKernel}) {
        const auto seed = runReport("skipnet", d, 45);
        const auto fast =
            runReport("skipnet", d, 45, &shared, &stores);
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
    // Counters stay out of the byte-stable report serialization; they
    // travel only in the report's fields.
    const auto json = core::toJson(rep, true);
    EXPECT_EQ(json.find("mapper_hits"), std::string::npos);
    EXPECT_EQ(json.find("store_misses"), std::string::npos);
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
    EXPECT_EQ(first.mapperHits, second.mapperHits);
    EXPECT_EQ(first.mapperMisses, second.mapperMisses);
    EXPECT_EQ(first.storeHits, second.storeHits);
    EXPECT_EQ(first.storeMisses, second.storeMisses);
    EXPECT_EQ(core::toJson(first, true), core::toJson(second, true));
}

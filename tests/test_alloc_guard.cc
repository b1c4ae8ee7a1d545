/**
 * @file
 * Zero-allocation guard for the serve hot path: a steady-state
 * Engine::runPeriod (out-param result, scratch buffers sized) must
 * not touch the heap, with or without a profiler attached, and
 * neither may the first period on a segment partition the engine has
 * never run. A warm TraceGenerator::next allocates only the routing
 * it returns, and recording a served request into a warm drift
 * profiler allocates nothing.
 *
 * The guard counts calls to the replaceable global operator new. The
 * tests skip under sanitizer builds (ADYNA_SANITIZE): sanitizer
 * runtimes interpose the allocator and allocate internally, so the
 * counter stops measuring the code under test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "arch/chip.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "graph/parser.hh"
#include "models/models.hh"
#include "serve/drift.hh"
#include "trace/trace.hh"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace adyna;
using namespace adyna::core;
using namespace adyna::graph;

arch::HwConfig
hw()
{
    return arch::HwConfig{};
}

/** A static chain of @p depth 512x512 matmuls. */
DynGraph
staticPipe(std::int64_t batch, int depth = 3)
{
    Graph g("pipe");
    OpId prev = g.addInput("in", LoopDims::matmul(batch, 512, 512));
    for (int i = 0; i < depth; ++i)
        prev = g.addMatMul("mm" + std::to_string(i), prev, 512, 512);
    g.addOutput("out", prev);
    return parseModel(g);
}

/** Every split of @p ops into contiguous segments, in order. */
std::vector<std::vector<std::vector<OpId>>>
contiguousPartitions(const std::vector<OpId> &ops)
{
    std::vector<std::vector<std::vector<OpId>>> out;
    const std::size_t cuts = ops.size() - 1;
    for (std::size_t mask = 0; mask < (std::size_t{1} << cuts);
         ++mask) {
        std::vector<std::vector<OpId>> part(1);
        for (std::size_t i = 0; i < ops.size(); ++i) {
            part.back().push_back(ops[i]);
            if (i < cuts && (mask >> i & 1))
                part.emplace_back();
        }
        out.push_back(std::move(part));
    }
    return out;
}

TEST(AllocGuard, SteadyStateRunPeriodAllocatesNothing)
{
#ifdef ADYNA_SANITIZE
    GTEST_SKIP() << "allocation counting is unreliable under "
                    "sanitizer runtimes";
#endif
    const DynGraph dg = staticPipe(64);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);

    Engine eng(dg, hw(), mapper, ExecPolicy{});
    arch::Chip chip(hw());

    trace::TraceConfig tc;
    tc.batchSize = 64;
    tc.driftStrength = 0.0;
    trace::TraceGenerator gen(dg, tc, 1);
    std::vector<trace::BatchRouting> batches;
    for (int i = 0; i < 6; ++i)
        batches.push_back(gen.next());

    // Warm-up periods size every scratch vector. Several are needed:
    // the HBM gap-resource's interval vector oscillates over a
    // multi-period trim/compaction cycle, so its capacity peaks only
    // after a few periods. The barrier stays monotone like the serve
    // loop's dispatch clock.
    PeriodResult out;
    Tick barrier = 0;
    for (int i = 0; i < 6; ++i) {
        eng.runPeriod(chip, s, batches, nullptr, barrier, out);
        barrier = out.endTime;
    }

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    eng.runPeriod(chip, s, batches, nullptr, barrier, out);
    const std::uint64_t after =
        g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state runPeriod performed " << (after - before)
        << " heap allocations";
    EXPECT_EQ(out.batchEnds.size(), batches.size());
}

/**
 * With a profiler attached, runPeriod also records every batch's
 * branch loads into the profiler's fixed per-switch rings and every
 * dynamic op's value into its frequency table. Once the rings are
 * full (64 batches) and the tables hold the values the batches
 * carry, a period allocates nothing either. SkipNet at batch 16: the
 * same six routings run every period, so every value is seen in the
 * warm-up.
 */
TEST(AllocGuard, SteadyStateRunPeriodWithProfilerAllocatesNothing)
{
#ifdef ADYNA_SANITIZE
    GTEST_SKIP() << "allocation counting is unreliable under "
                    "sanitizer runtimes";
#endif
    const models::ModelBundle m = models::buildByName("skipnet", 16);
    const DynGraph dg = parseModel(m.graph);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    const Schedule s = sched.build({}, {}, nullptr);

    Engine eng(dg, hw(), mapper, ExecPolicy{});
    arch::Chip chip(hw());
    trace::TraceConfig tc = m.traceConfig;
    tc.batchSize = 16;
    trace::TraceGenerator gen(dg, tc, 1);
    std::vector<trace::BatchRouting> batches;
    for (int i = 0; i < 6; ++i)
        batches.push_back(gen.next());

    arch::Profiler prof;
    PeriodResult out;
    Tick barrier = 0;
    for (int i = 0; i < 16; ++i) {
        eng.runPeriod(chip, s, batches, &prof, barrier, out);
        barrier = out.endTime;
    }
    ASSERT_EQ(prof.branchHistory(dg.switches()[0].switchOp).size(), 64u);

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    eng.runPeriod(chip, s, batches, &prof, barrier, out);
    const std::uint64_t after =
        g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "steady-state runPeriod with a profiler performed "
        << (after - before) << " heap allocations";
    EXPECT_EQ(out.batchEnds.size(), batches.size());
}

/**
 * The engine plans every period from the graph's data-flow view, so
 * the first period on a segment partition it has never run needs no
 * new state: once warm-up on the other partitions of the same graph
 * (imposed through PlanOverride::partition) has sized the scratch
 * buffers and the chip's HBM and NoC reservation lists, that period
 * allocates nothing either.
 */
TEST(AllocGuard, FirstPeriodOnUnseenPartitionAllocatesNothing)
{
#ifdef ADYNA_SANITIZE
    GTEST_SKIP() << "allocation counting is unreliable under "
                    "sanitizer runtimes";
#endif
    const DynGraph dg = staticPipe(64, 4);
    costmodel::Mapper mapper(hw().tech);
    Scheduler sched(dg, hw(), mapper, SchedulerConfig{});
    std::vector<Schedule> schedules;
    for (auto &part : contiguousPartitions(dg.computeOps())) {
        PlanOverride plan;
        plan.partition = std::move(part);
        sched.setPlanOverride(&plan);
        schedules.push_back(sched.build({}, {}, nullptr));
        sched.setPlanOverride(nullptr);
    }
    // Partition 6, {mm0 mm1} {mm2} {mm3}, is held out of the
    // warm-up.
    const Schedule unseen = schedules[6];
    schedules.erase(schedules.begin() + 6);
    ASSERT_EQ(unseen.segments.size(), 3u);

    Engine eng(dg, hw(), mapper, ExecPolicy{});
    arch::Chip chip(hw());
    trace::TraceConfig tc;
    tc.batchSize = 64;
    tc.driftStrength = 0.0;
    trace::TraceGenerator gen(dg, tc, 1);
    std::vector<trace::BatchRouting> batches;
    for (int i = 0; i < 6; ++i)
        batches.push_back(gen.next());

    // Five warm-up rounds over the seven other partitions: the HBM
    // and NoC reservation lists grow through the third round, and
    // the fourth and fifth allocate nothing.
    PeriodResult out;
    Tick barrier = 0;
    for (int round = 0; round < 5; ++round)
        for (const Schedule &s : schedules) {
            eng.runPeriod(chip, s, batches, nullptr, barrier, out);
            barrier = out.endTime;
        }

    const std::uint64_t before =
        g_allocs.load(std::memory_order_relaxed);
    eng.runPeriod(chip, unseen, batches, nullptr, barrier, out);
    const std::uint64_t after =
        g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "first runPeriod on an unseen partition performed "
        << (after - before) << " heap allocations";
    EXPECT_EQ(out.batchEnds.size(), batches.size());
}

/**
 * TraceGenerator::next keeps its samples, ranking, gate weights and
 * top-k sampler in member buffers, so once they are sized a call
 * allocates only the routing it returns: its outcome vector and one
 * branch-count vector per switch. Inputs are the serving runtimes'
 * per-request traces (batch 1) under drift, and offline-sweep's five
 * models at batch 128 under their default traces, whose gates select
 * the easiest samples, sort them, or skip their jitter.
 */
TEST(AllocGuard, TraceNextAllocatesOnlyItsOutput)
{
#ifdef ADYNA_SANITIZE
    GTEST_SKIP() << "allocation counting is unreliable under "
                    "sanitizer runtimes";
#endif
    struct Shape
    {
        const char *model;
        std::int64_t batch;
        bool drifting;
        int calls;
    };
    for (const Shape &shape : {Shape{"tutel-moe", 1, true, 2000},
                               Shape{"skipnet", 1, true, 2000},
                               Shape{"pabee", 1, true, 2000},
                               Shape{"skipnet", 128, false, 200},
                               Shape{"pabee", 128, false, 200},
                               Shape{"fbsnet", 128, false, 200},
                               Shape{"tutel-moe", 128, false, 200},
                               Shape{"dpsnet", 128, false, 200}}) {
        const models::ModelBundle m =
            models::buildByName(shape.model, shape.drifting ? 32
                                                            : shape.batch);
        const DynGraph dg = parseModel(m.graph);
        trace::TraceConfig tc = m.traceConfig;
        tc.batchSize = shape.batch;
        if (shape.drifting) {
            tc.driftStrength = 0.9;
            tc.driftPeriod = 700;
        }
        trace::TraceGenerator gen(dg, tc, 7);
        for (int i = 0; i < 50; ++i)
            (void)gen.next();

        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        for (int i = 0; i < shape.calls; ++i)
            (void)gen.next();
        const std::uint64_t after =
            g_allocs.load(std::memory_order_relaxed);
        EXPECT_EQ(after - before,
                  (dg.switches().size() + 1) *
                      static_cast<std::uint64_t>(shape.calls))
            << shape.model << " at batch " << shape.batch << ": "
            << dg.switches().size() << " switches";
    }
}

/**
 * A served request reaches the drift profiler through
 * serve::recordRequest: noteBatch, the graph's cached dynamicOps(),
 * one dynValue per dynamic op, recordValue into flat per-op tables,
 * and the load series. Once the tables hold every value the requests
 * carry, none of it allocates, across a window reset too (which
 * keeps the tables' storage). Serve-drift's per-request shapes:
 * batch 1 under drift.
 */
TEST(AllocGuard, DriftProfilerRecordsRequestsWithoutAllocating)
{
#ifdef ADYNA_SANITIZE
    GTEST_SKIP() << "allocation counting is unreliable under "
                    "sanitizer runtimes";
#endif
    for (const char *model : {"skipnet", "pabee", "tutel-moe"}) {
        const models::ModelBundle m = models::buildByName(model, 32);
        const DynGraph dg = parseModel(m.graph);
        trace::TraceConfig tc = m.traceConfig;
        tc.batchSize = 1;
        tc.driftStrength = 0.9;
        tc.driftPeriod = 700;
        trace::TraceGenerator gen(dg, tc, 7);
        std::vector<trace::BatchRouting> requests;
        for (int i = 0; i < 1500; ++i)
            requests.push_back(gen.next());

        arch::Profiler prof;
        for (const trace::BatchRouting &r : requests)
            serve::recordRequest(prof, dg, r);
        prof.resetTables();

        const std::uint64_t before =
            g_allocs.load(std::memory_order_relaxed);
        for (const trace::BatchRouting &r : requests)
            serve::recordRequest(prof, dg, r);
        const std::uint64_t after =
            g_allocs.load(std::memory_order_relaxed);
        EXPECT_EQ(after - before, 0u)
            << model << ": recording " << requests.size()
            << " requests performed " << (after - before)
            << " heap allocations";
        EXPECT_EQ(prof.windowBatches(), requests.size());
    }
}

} // namespace

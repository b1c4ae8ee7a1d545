/**
 * @file
 * Zero-allocation guard for the serve hot path: a steady-state
 * Engine::runPeriod (warm plan cache, out-param result) must not
 * touch the heap.
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

#include "arch/chip.hh"
#include "core/engine.hh"
#include "core/scheduler.hh"
#include "graph/parser.hh"
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

    ExecPolicy policy; // planCache default on
    Engine eng(dg, hw(), mapper, policy);
    arch::Chip chip(hw());

    trace::TraceConfig tc;
    tc.batchSize = 64;
    tc.driftStrength = 0.0;
    trace::TraceGenerator gen(dg, tc, 1);
    std::vector<trace::BatchRouting> batches;
    for (int i = 0; i < 6; ++i)
        batches.push_back(gen.next());

    // Warm-up periods size every scratch vector and plan-cache
    // entry. Several are needed: the HBM gap-resource's interval
    // vector oscillates over a multi-period trim/compaction cycle, so
    // its capacity peaks only after a few periods. The barrier stays
    // monotone like the serve loop's dispatch clock.
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

} // namespace

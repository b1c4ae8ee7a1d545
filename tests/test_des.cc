/**
 * @file
 * Unit tests for the discrete-event engine: event ordering, FIFO
 * tie-breaking, run-until semantics, and the gap-filling bandwidth /
 * serial resource reservation models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "des/resource.hh"
#include "des/simulator.hh"

namespace {

using namespace adyna;
using namespace adyna::des;

TEST(Simulator, ExecutesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30, [&] { order.push_back(3); });
    sim.schedule(10, [&] { order.push_back(1); });
    sim.schedule(20, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
    EXPECT_EQ(sim.eventsProcessed(), 3u);
}

TEST(Simulator, SameTickFifoOrder)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule(7, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(1, [&] {
        ++fired;
        sim.scheduleIn(5, [&] { ++fired; });
    });
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 6u);
}

TEST(Simulator, RunUntilStopsAtLimit)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10, [&] { ++fired; });
    sim.schedule(20, [&] { ++fired; });
    sim.schedule(21, [&] { ++fired; });
    sim.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run();
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepReturnsFalseWhenEmpty)
{
    Simulator sim;
    EXPECT_FALSE(sim.step());
    sim.schedule(0, [] {});
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(GapBandwidthResource, ServiceTimeCeils)
{
    GapBandwidthResource link(4.0); // 4 bytes per tick
    EXPECT_EQ(link.serviceTime(0), 0u);
    EXPECT_EQ(link.serviceTime(4), 1u);
    EXPECT_EQ(link.serviceTime(5), 2u);
    EXPECT_EQ(link.serviceTime(8), 2u);
}

TEST(SerialResource, SerializesOverlappingWork)
{
    SerialResource server;
    const auto a = server.acquire(0, 10);
    const auto b = server.acquire(5, 10);
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(b.start, 10u);
    EXPECT_EQ(b.end, 20u);
    EXPECT_EQ(server.busyTicks(), 20u);
}

TEST(SerialResource, ZeroDurationIsInstant)
{
    SerialResource server;
    const auto a = server.acquire(3, 0);
    EXPECT_EQ(a.start, 3u);
    EXPECT_EQ(a.end, 3u);
}

} // namespace

TEST(GapBandwidthResource, FillsEarliestGap)
{
    GapBandwidthResource ch(10.0);
    // Reserve [100, 110) first.
    const auto late = ch.acquire(100, 100);
    EXPECT_EQ(late.start, 100u);
    // An earlier request fits before it.
    const auto early = ch.acquire(0, 100);
    EXPECT_EQ(early.start, 0u);
    EXPECT_EQ(early.end, 10u);
    // A large request does not fit in the [10, 100) gap? It does:
    // 900 bytes = 90 ticks exactly.
    const auto mid = ch.acquire(0, 900);
    EXPECT_EQ(mid.start, 10u);
    EXPECT_EQ(mid.end, 100u);
    // Now everything up to 110 is busy: next goes after.
    const auto next = ch.acquire(0, 10);
    EXPECT_EQ(next.start, 110u);
}

TEST(GapBandwidthResource, RespectsEarliest)
{
    GapBandwidthResource ch(10.0);
    const auto a = ch.acquire(50, 100);
    EXPECT_EQ(a.start, 50u);
    // earliest inside an existing reservation: starts at its end.
    const auto b = ch.acquire(55, 10);
    EXPECT_EQ(b.start, 60u);
}

TEST(GapBandwidthResource, TooSmallGapIsSkipped)
{
    GapBandwidthResource ch(1.0);
    (void)ch.acquire(0, 10);   // [0, 10)
    (void)ch.acquire(15, 10);  // [15, 25)
    // 8 ticks do not fit in the 5-tick gap [10, 15).
    const auto c = ch.acquire(0, 8);
    EXPECT_EQ(c.start, 25u);
    // 5 ticks do.
    const auto d = ch.acquire(0, 5);
    EXPECT_EQ(d.start, 10u);
}

TEST(GapBandwidthResource, AccountingAndReset)
{
    GapBandwidthResource ch(2.0);
    (void)ch.acquire(0, 10);
    (void)ch.acquire(100, 6);
    EXPECT_EQ(ch.bytesServed(), 16u);
    EXPECT_EQ(ch.busyTicks(), 5u + 3u);
    ch.reset();
    EXPECT_EQ(ch.bytesServed(), 0u);
    const auto a = ch.acquire(0, 2);
    EXPECT_EQ(a.start, 0u);
}

TEST(GapBandwidthResource, ManyRandomReservationsStayDisjoint)
{
    GapBandwidthResource ch(1.0);
    Rng rng(99);
    std::vector<Reservation> granted;
    for (int i = 0; i < 200; ++i) {
        const Tick t = static_cast<Tick>(rng.uniformInt(0, 5000));
        const Bytes b = static_cast<Bytes>(rng.uniformInt(1, 40));
        const auto r = ch.acquire(t, b);
        EXPECT_GE(r.start, t);
        granted.push_back(r);
    }
    std::sort(granted.begin(), granted.end(),
              [](const Reservation &a, const Reservation &b) {
                  return a.start < b.start;
              });
    for (std::size_t i = 1; i < granted.size(); ++i)
        EXPECT_LE(granted[i - 1].end, granted[i].start);
}

// ---- typed-event / calendar-queue engine ---------------------------

namespace {

/** Recorder context for typed events: (now, payload a) per firing. */
struct Fired
{
    Simulator *sim = nullptr;
    std::vector<std::pair<Tick, std::uint64_t>> log;

    static void
    handler(void *ctx, std::uint64_t a, std::uint64_t)
    {
        auto *f = static_cast<Fired *>(ctx);
        f->log.emplace_back(f->sim->now(), a);
    }
};

} // namespace

TEST(Simulator, TypedPostDispatchesThroughHandlerTable)
{
    Simulator sim;
    Fired fired;
    fired.sim = &sim;
    sim.setHandler(1, &Fired::handler, &fired);
    sim.post(20, 1, 42);
    sim.postIn(5, 1, 7);
    sim.run();
    ASSERT_EQ(fired.log.size(), 2u);
    EXPECT_EQ(fired.log[0], (std::pair<Tick, std::uint64_t>{5, 7}));
    EXPECT_EQ(fired.log[1], (std::pair<Tick, std::uint64_t>{20, 42}));
    EXPECT_EQ(sim.eventsProcessed(), 2u);
}

TEST(Simulator, InterleavedTypedAndClosureEventsKeepFifoOrder)
{
    // Same-tick events must fire in insertion order regardless of
    // which API posted them -- the calendar ring appends both paths
    // to the same bucket FIFO.
    Simulator sim;
    std::vector<int> order;
    Fired fired;
    fired.sim = &sim;
    Simulator::Handler record = [](void *ctx, std::uint64_t a,
                                   std::uint64_t) {
        static_cast<std::vector<int> *>(ctx)->push_back(
            static_cast<int>(a));
    };
    sim.setHandler(1, record, &order);
    for (int i = 0; i < 8; ++i) {
        if (i % 2 == 0)
            sim.post(50, 1, static_cast<std::uint64_t>(i));
        else
            sim.schedule(50, [&order, i] { order.push_back(i); });
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, MatchesLegacyOrderAcrossWindowJumps)
{
    // The same deterministic stream through both engines, with
    // deltas straddling the ring window so events migrate ring ->
    // heap -> ring. The fired sequence must be identical.
    const auto delta = [](std::uint64_t id) -> Tick {
        if (id % 5 == 0)
            return 3000 + id % 257; // far future: overflow heap
        return id % 3;              // same-tick and near-future
    };
    const int kChains = 16, kHops = 200;

    std::vector<std::pair<Tick, std::uint64_t>> legacyLog;
    {
        LegacySimulator sim;
        std::function<void(std::uint64_t, int)> hop =
            [&](std::uint64_t id, int depth) {
                legacyLog.emplace_back(sim.now(), id);
                if (depth < kHops)
                    sim.schedule(sim.now() + delta(id + depth),
                                 [&hop, id, depth] {
                                     hop(id, depth + 1);
                                 });
            };
        for (std::uint64_t c = 0; c < kChains; ++c)
            sim.schedule(delta(c), [&hop, c] { hop(c, 0); });
        sim.run();
    }

    std::vector<std::pair<Tick, std::uint64_t>> typedLog;
    {
        Simulator sim;
        struct Ctx
        {
            Simulator *sim;
            std::vector<std::pair<Tick, std::uint64_t>> *log;
            Tick (*delta)(std::uint64_t);
        };
        // Re-wrap the lambda as a plain function pointer for Ctx.
        Ctx ctx{&sim, &typedLog, nullptr};
        Simulator::Handler hop = [](void *c, std::uint64_t id,
                                    std::uint64_t depth) {
            auto *ctx = static_cast<Ctx *>(c);
            ctx->log->emplace_back(ctx->sim->now(), id);
            if (depth < kHops) {
                const Tick d = (id + depth) % 5 == 0
                                   ? 3000 + (id + depth) % 257
                                   : (id + depth) % 3;
                ctx->sim->post(ctx->sim->now() + d, 1, id, depth + 1);
            }
        };
        sim.setHandler(1, hop, &ctx);
        for (std::uint64_t c = 0; c < kChains; ++c)
            sim.post(delta(c), 1, c, 0);
        sim.run();
    }
    EXPECT_EQ(typedLog, legacyLog);
}

TEST(Simulator, ArenaSlotsStayBoundedUnderChurn)
{
    // Steady-state churn recycles slots through the free-list: the
    // arena must not grow past the peak number of in-flight events.
    Simulator sim;

    struct Churn
    {
        Simulator *sim;
        int remaining;

        static void
        handler(void *ctx, std::uint64_t, std::uint64_t)
        {
            auto *c = static_cast<Churn *>(ctx);
            if (c->remaining-- > 0)
                c->sim->postIn(1 + c->remaining % 17, 2);
        }
    };
    Churn churn{&sim, 100000};
    sim.setHandler(2, &Churn::handler, &churn);
    for (int i = 0; i < 32; ++i)
        sim.postIn(1 + i, 2);
    sim.run();
    // 100k events recycled through the free-list: the arena never
    // grows past the peak in-flight count (32 chains, plus at most
    // one slot for the event being dispatched).
    EXPECT_LE(sim.arenaSlots(), 33u);
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(sim.eventsProcessed(), 100032u);
}

TEST(Simulator, PendingCountsRingAndHeap)
{
    Simulator sim;
    Fired fired;
    fired.sim = &sim;
    sim.setHandler(1, &Fired::handler, &fired);
    sim.post(1, 1);      // ring
    sim.post(2, 1);      // ring
    sim.post(500000, 1); // far future: overflow heap
    EXPECT_EQ(sim.pending(), 3u);
    EXPECT_TRUE(sim.step());
    EXPECT_EQ(sim.pending(), 2u);
    sim.run();
    EXPECT_EQ(sim.pending(), 0u);
    EXPECT_EQ(fired.log.size(), 3u);
    EXPECT_EQ(fired.log.back().first, 500000u);
}

TEST(GapBandwidthResource, TrimBoundsReservationCount)
{
    // Monotone acquire + periodic trim (the engine's period-barrier
    // pattern) must keep the live interval list bounded instead of
    // grow-only.
    GapBandwidthResource ch(1.0);
    std::size_t peak = 0;
    Tick t = 0;
    for (int period = 0; period < 200; ++period) {
        for (int i = 0; i < 16; ++i) {
            (void)ch.acquire(t, 4);
            t += 10; // gaps between reservations stay unmerged
        }
        ch.trim(t);
        peak = std::max(peak, ch.reservationCount());
    }
    // Everything ending at or before the barrier is gone; only
    // intervals granted after the last barrier could survive.
    EXPECT_EQ(ch.reservationCount(), 0u);
    EXPECT_LE(peak, 16u);
}

TEST(GapBandwidthResource, TrimPreservesAcquireTimings)
{
    // Two channels fed the same monotone request stream, one trimmed
    // at every barrier: every grant must be identical.
    GapBandwidthResource trimmed(2.0), reference(2.0);
    Rng rng(7);
    Tick barrier = 0;
    for (int period = 0; period < 50; ++period) {
        Tick t = barrier;
        for (int i = 0; i < 12; ++i) {
            t += static_cast<Tick>(rng.uniformInt(0, 9));
            const Bytes b = static_cast<Bytes>(rng.uniformInt(1, 32));
            const auto a = trimmed.acquire(t, b);
            const auto c = reference.acquire(t, b);
            EXPECT_EQ(a.start, c.start);
            EXPECT_EQ(a.end, c.end);
            barrier = std::max(barrier, a.end);
        }
        trimmed.trim(barrier);
    }
    EXPECT_EQ(trimmed.bytesServed(), reference.bytesServed());
    EXPECT_EQ(trimmed.busyTicks(), reference.busyTicks());
}

// ---- GapBandwidthResource vs a brute-force first-fit model ---------

namespace {

/**
 * Reference first-fit channel: keeps every grant in a flat list and
 * answers each request from scratch. Touching or overlapping grants
 * form one busy run; a request of duration d fits at t when, for
 * every run, it ends by the run's start or starts at or after the
 * run's end. The grant is the smallest fitting t >= earliest, which
 * is always earliest or some run's end.
 */
class FirstFitModel
{
  public:
    explicit FirstFitModel(Tick bytesPerTick) : rate_(bytesPerTick) {}

    Reservation
    acquire(Tick earliest, Bytes bytes)
    {
        const Tick dur = (bytes + rate_ - 1) / rate_;
        bytesServed_ += bytes;
        busyTicks_ += dur;

        std::vector<Reservation> sorted = grants_;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Reservation &a, const Reservation &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.end < b.end;
                  });
        std::vector<Reservation> runs;
        for (const Reservation &r : sorted) {
            if (!runs.empty() && r.start <= runs.back().end)
                runs.back().end = std::max(runs.back().end, r.end);
            else
                runs.push_back(r);
        }
        const auto fits = [&](Tick t) {
            for (const Reservation &run : runs)
                if (!(t + dur <= run.start || t >= run.end))
                    return false;
            return true;
        };
        Tick best = fits(earliest) ? earliest : ~Tick{0};
        for (const Reservation &run : runs)
            if (run.end >= earliest && run.end < best && fits(run.end))
                best = run.end;
        const Reservation granted{best, best + dur};
        grants_.push_back(granted);
        return granted;
    }

    Bytes bytesServed() const { return bytesServed_; }
    Tick busyTicks() const { return busyTicks_; }

  private:
    Tick rate_;
    std::vector<Reservation> grants_;
    Bytes bytesServed_ = 0;
    Tick busyTicks_ = 0;
};

/** Feed one request to both channels and compare the grants. */
void
acquireBoth(GapBandwidthResource &ch, FirstFitModel &model,
            Tick earliest, Bytes bytes)
{
    const Reservation got = ch.acquire(earliest, bytes);
    const Reservation want = model.acquire(earliest, bytes);
    ASSERT_EQ(got.start, want.start)
        << "earliest " << earliest << " bytes " << bytes;
    ASSERT_EQ(got.end, want.end)
        << "earliest " << earliest << " bytes " << bytes;
}

} // namespace

TEST(GapBandwidthResource, MatchesFirstFitModelOutOfOrder)
{
    GapBandwidthResource ch(2.0);
    FirstFitModel model(2);
    Rng rng(2024);
    for (int i = 0; i < 600; ++i) {
        const Tick t = static_cast<Tick>(rng.uniformInt(0, 4000));
        const Bytes b = static_cast<Bytes>(rng.uniformInt(1, 90));
        acquireBoth(ch, model, t, b);
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(ch.bytesServed(), model.bytesServed());
    EXPECT_EQ(ch.busyTicks(), model.busyTicks());
}

TEST(GapBandwidthResource, MatchesFirstFitModelOnExactFitGaps)
{
    // Reserve every other 10-tick slot, then fill each gap with a
    // request of exactly its length, so the grant touches both
    // neighbours and the three intervals merge into one.
    GapBandwidthResource ch(1.0);
    FirstFitModel model(1);
    for (Tick slot = 0; slot < 40; slot += 2)
        acquireBoth(ch, model, slot * 10, 10);
    // Fill the 19 gaps [10, 20), [30, 40), ... in shuffled order,
    // each from an earliest inside the busy slot just before it.
    std::vector<Tick> gaps;
    for (Tick slot = 1; slot < 39; slot += 2)
        gaps.push_back(slot * 10);
    Rng rng(5);
    for (std::size_t i = gaps.size(); i > 1; --i)
        std::swap(gaps[i - 1],
                  gaps[static_cast<std::size_t>(rng.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
    for (Tick gap : gaps) {
        const Tick t = gap - static_cast<Tick>(rng.uniformInt(0, 10));
        acquireBoth(ch, model, t, 10);
        if (HasFatalFailure())
            return;
    }
    // [0, 390) is now one busy run: the next grant starts at its end.
    EXPECT_EQ(ch.acquire(0, 1).start, 390u);
    (void)model.acquire(0, 1);
    EXPECT_EQ(ch.bytesServed(), model.bytesServed());
    EXPECT_EQ(ch.busyTicks(), model.busyTicks());
}

TEST(GapBandwidthResource, MatchesFirstFitModelWithZeroByteRequests)
{
    // Zero-byte requests grant zero-length intervals, which stay in
    // the list (a later request may not span them) or merge into a
    // neighbour they touch.
    GapBandwidthResource ch(1.0);
    FirstFitModel model(1);
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
        const Tick t = static_cast<Tick>(rng.uniformInt(0, 600));
        const Bytes b = rng.bernoulli(0.3)
                            ? 0
                            : static_cast<Bytes>(rng.uniformInt(1, 12));
        acquireBoth(ch, model, t, b);
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(ch.bytesServed(), model.bytesServed());
    EXPECT_EQ(ch.busyTicks(), model.busyTicks());
}

TEST(GapBandwidthResource, MatchesFirstFitModelAcrossTrimBarriers)
{
    // Out-of-order requests within each period, all at or after the
    // monotone barrier the channel is trimmed to. Trimming drops only
    // intervals that cannot change a later grant, so the untrimmed
    // model must agree on every grant.
    GapBandwidthResource ch(3.0);
    FirstFitModel model(3);
    Rng rng(77);
    Tick barrier = 0;
    for (int period = 0; period < 40; ++period) {
        Tick periodEnd = barrier;
        for (int i = 0; i < 20; ++i) {
            const Tick t =
                barrier + static_cast<Tick>(rng.uniformInt(0, 300));
            const Bytes b = static_cast<Bytes>(rng.uniformInt(0, 60));
            const Reservation got = ch.acquire(t, b);
            const Reservation want = model.acquire(t, b);
            ASSERT_EQ(got.start, want.start) << "period " << period;
            ASSERT_EQ(got.end, want.end) << "period " << period;
            periodEnd = std::max(periodEnd, got.end);
        }
        // A barrier inside the period's last grants keeps some live
        // intervals across it.
        const Tick back = static_cast<Tick>(rng.uniformInt(0, 40));
        if (periodEnd > barrier + back)
            barrier = periodEnd - back;
        ch.trim(barrier);
    }
    EXPECT_EQ(ch.bytesServed(), model.bytesServed());
    EXPECT_EQ(ch.busyTicks(), model.busyTicks());
}

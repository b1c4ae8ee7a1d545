/**
 * @file
 * Unit tests for the reservation resources the engine times every
 * transfer and compute step with: the gap-filling bandwidth and
 * serial resource models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/resource.hh"
#include "common/rng.hh"

namespace {

using namespace adyna;
using namespace adyna::arch;

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

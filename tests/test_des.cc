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

        const std::vector<Reservation> runs = mergedRuns();
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

    /** Busy runs so far (a channel that merges every touching pair
     * of intervals holds exactly these). */
    std::size_t runCount() const { return mergedRuns().size(); }

  private:
    /** The grants, sorted, with touching or overlapping ones merged
     * into one run. */
    std::vector<Reservation>
    mergedRuns() const
    {
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
        return runs;
    }

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

TEST(GapBandwidthResource, MatchesFirstFitModelOnRepeatedRequests)
{
    // An edge's source slices leave together with equal service
    // times, so a link sees bursts of identical requests, and the
    // channel grants a repeat from its memory of the previous grant.
    // Each case is a fresh channel at 2 bytes per tick fed alongside
    // the model; grants and accounting must agree, and so must the
    // live interval count while every grant is positive and nothing
    // is trimmed (a channel that left two touching intervals unmerged
    // would still grant the same starts).
    struct Case
    {
        GapBandwidthResource ch{2.0};
        FirstFitModel model{2};
        bool countRuns = true;
        std::uint64_t requests = 0;

        void
        burst(Tick earliest, Bytes bytes, int n)
        {
            for (int i = 0; i < n; ++i) {
                ++requests;
                acquireBoth(ch, model, earliest, bytes);
                if (::testing::Test::HasFatalFailure())
                    return;
                if (countRuns) {
                    ASSERT_EQ(ch.reservationCount(), model.runCount())
                        << "earliest " << earliest << " bytes " << bytes;
                }
            }
        }

        void
        checkTotals() const
        {
            EXPECT_EQ(ch.bytesServed(), model.bytesServed());
            EXPECT_EQ(ch.busyTicks(), model.busyTicks());
        }
    };

    {
        // A burst that fills the gap [10, 30) exactly: its second
        // grant touches both neighbours, the strict boundary.
        Case c;
        c.burst(0, 20, 1);  // [0, 10)
        c.burst(30, 20, 1); // [30, 40)
        c.burst(0, 20, 3);  // [10, 20), [20, 30), [40, 50)
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_EQ(c.ch.reservationCount(), 1u);
        c.checkTotals();
    }
    {
        // A burst that overflows the gap [10, 35), continues past
        // [35, 45) and [60, 70) (the gaps left are too small), and
        // runs on; then a short request fills the gap [30, 35).
        Case c;
        c.burst(0, 20, 1);  // [0, 10)
        c.burst(35, 20, 1); // [35, 45)
        c.burst(60, 20, 1); // [60, 70)
        c.burst(0, 20, 7);  // [10, 30), [45, 55), [70, 110)
        c.burst(0, 10, 1);  // [30, 35)
        ASSERT_FALSE(HasFatalFailure());
        EXPECT_EQ(c.ch.reservationCount(), 2u); // [0, 55), [60, 110)
        c.checkTotals();
    }
    {
        // A mid-burst change of earliest with the same service time:
        // later, where a gap is free, and earlier, into a gap the
        // burst had passed over.
        Case c;
        c.burst(0, 20, 1);   // [0, 10)
        c.burst(16, 20, 1);  // [16, 26)
        c.burst(0, 20, 3);   // [26, 36) ...
        c.burst(200, 20, 3); // [200, 210) ...
        c.burst(8, 12, 2);   // [10, 16), then after the first burst
        c.burst(200, 20, 2);
        ASSERT_FALSE(HasFatalFailure());
        c.checkTotals();
    }
    {
        // A change of bytes: one that keeps the service time (19 and
        // 20 bytes both take 10 ticks) and one that shortens it
        // enough to fit the gap [10, 15) the burst skipped.
        Case c;
        c.burst(0, 20, 1);  // [0, 10)
        c.burst(15, 50, 1); // [15, 40)
        c.burst(0, 20, 2);  // [40, 50), [50, 60)
        c.burst(0, 19, 2);  // [60, 70), [70, 80)
        c.burst(0, 20, 1);
        c.burst(0, 10, 2);  // [10, 15), then after the burst
        ASSERT_FALSE(HasFatalFailure());
        c.checkTotals();
    }
    {
        // Zero-byte requests inside a burst: one at the burst's own
        // earliest, and one at an earlier free time, whose new
        // zero-length interval shifts every later index by one.
        Case c;
        c.countRuns = false;
        c.burst(300, 20, 1); // [300, 310)
        c.burst(100, 20, 3); // [100, 130)
        c.burst(100, 0, 1);
        c.burst(100, 20, 2);
        c.burst(50, 0, 1);
        c.burst(100, 20, 3);
        c.burst(100, 4, 1);
        ASSERT_FALSE(HasFatalFailure());
        c.checkTotals();
    }
    {
        // A burst split by a trim that compacts the expired prefix:
        // twenty intervals end before the barrier, so the live ones
        // move to the front of the list.
        Case c;
        c.countRuns = false;
        for (Tick t = 0; t < 200; t += 10)
            c.burst(t, 2, 1);
        c.burst(1000, 20, 1); // [1000, 1010)
        c.burst(300, 10, 3);  // [300, 315)
        ASSERT_FALSE(HasFatalFailure());
        c.ch.trim(300);
        EXPECT_EQ(c.ch.reservationCount(), 2u);
        c.burst(300, 10, 3);
        c.burst(300, 6, 1);
        c.burst(300, 10, 2);
        ASSERT_FALSE(HasFatalFailure());
        c.checkTotals();
    }
    {
        // Random bursts of 1-12 identical requests mixed with single
        // random requests.
        Case c;
        Rng rng(4242);
        for (int i = 0; i < 150; ++i) {
            const Tick t = static_cast<Tick>(rng.uniformInt(0, 3000));
            const Bytes b = static_cast<Bytes>(rng.uniformInt(1, 40));
            const bool single = rng.bernoulli(0.4);
            c.burst(t, b,
                    single ? 1 : static_cast<int>(rng.uniformInt(1, 12)));
            ASSERT_FALSE(HasFatalFailure());
        }
        c.checkTotals();
        EXPECT_EQ(c.ch.acquires(), c.requests);
        EXPECT_GT(c.ch.repeatGrants(), 0u);
    }
    {
        // The same mix with zero-byte requests, across monotone trim
        // barriers.
        Case c;
        c.countRuns = false;
        Rng rng(909);
        Tick barrier = 0;
        for (int period = 0; period < 30; ++period) {
            Tick periodEnd = barrier;
            for (int i = 0; i < 12; ++i) {
                const Tick t =
                    barrier + static_cast<Tick>(rng.uniformInt(0, 200));
                const Bytes b = rng.bernoulli(0.15)
                                    ? 0
                                    : static_cast<Bytes>(
                                          rng.uniformInt(1, 30));
                c.burst(t, b, static_cast<int>(rng.uniformInt(1, 12)));
                ASSERT_FALSE(HasFatalFailure()) << "period " << period;
                periodEnd = std::max(periodEnd, t);
            }
            barrier = periodEnd;
            c.ch.trim(barrier);
        }
        c.checkTotals();
    }
}

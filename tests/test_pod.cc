/**
 * @file
 * Unit tests for the multi-chip pod runtime: Router policy behaviour
 * (least-loaded tie-breaks, round-robin cycling, affinity hit/miss
 * accounting, backpressure divert-then-shed, adaptive vs static
 * fail-over eligibility), Interconnect serialization/latency/FIFO
 * math and per-class byte accounting, the K=1 byte-identity gate
 * against serve::ServeRuntime (fault-free and under a per-chip
 * plan), chip_fail at K=1, configuration rejections, multi-chip
 * determinism, chip-loss drain + re-route, heal-time weight
 * re-streaming, partitioned placement, hedge exactly-once under chip
 * loss, per-request timeouts, and the on-drift schedule search on
 * every chip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baselines/designs.hh"
#include "fault/fault.hh"
#include "graph/parser.hh"
#include "json_check.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "pod/breaker.hh"
#include "pod/interconnect.hh"
#include "pod/router.hh"
#include "pod/runtime.hh"
#include "serve/server.hh"
#include "serve_fixtures.hh"

namespace {

using namespace adyna;
using namespace adyna::pod;

// --------------------------------------------------------- Router

std::vector<ChipStatus>
flatStatus(int chips)
{
    return std::vector<ChipStatus>(static_cast<std::size_t>(chips));
}

TEST(Router, LeastLoadedPicksLightestAndTiesToLowestId)
{
    Router r({}, 3);
    auto st = flatStatus(3);

    // All equal: the lowest id wins the tie.
    EXPECT_EQ(r.route(st, 0.0).chip, 0);

    st[1].load = 5.0;
    st[2].load = 2.0;
    st[0].load = 9.0;
    EXPECT_EQ(r.route(st, 0.0).chip, 2);

    st[1].load = 2.0; // tie between 1 and 2 -> lowest id
    EXPECT_EQ(r.route(st, 0.0).chip, 1);
}

TEST(Router, RoundRobinCyclesEligibleChips)
{
    RouterConfig rc;
    rc.policy = RoutePolicy::RoundRobin;
    Router r(rc, 3);
    const auto st = flatStatus(3);
    std::vector<int> picks;
    for (int i = 0; i < 6; ++i)
        picks.push_back(r.route(st, 0.0).chip);
    EXPECT_EQ(picks, (std::vector<int>{0, 1, 2, 0, 1, 2}));

    // A dark chip drops out of the rotation under adaptive routing.
    auto dark = st;
    dark[1].alive = false;
    picks.clear();
    for (int i = 0; i < 4; ++i)
        picks.push_back(r.route(dark, 0.0).chip);
    EXPECT_EQ(picks, (std::vector<int>{0, 2, 0, 2}));
}

TEST(Router, BackpressureDivertsThenSheds)
{
    RouterConfig rc;
    rc.queueLimit = 2;
    Router r(rc, 2);
    auto st = flatStatus(2);
    st[0].load = 0.0;
    st[1].load = 10.0;

    // Chip 0 is the policy's first choice but is full: divert to 1.
    st[0].queued = 2;
    const RouteDecision d = r.route(st, 0.0);
    EXPECT_EQ(d.chip, 1);
    EXPECT_TRUE(d.diverted);
    EXPECT_EQ(r.diverted(), 1u);
    EXPECT_EQ(r.shed(), 0u);

    // Every chip full: shed at the front door.
    st[1].queued = 2;
    const RouteDecision s = r.route(st, 0.0);
    EXPECT_EQ(s.chip, RouteDecision::kShed);
    EXPECT_FALSE(s.diverted);
    EXPECT_EQ(r.diverted(), 1u);
    EXPECT_EQ(r.shed(), 1u);
}

TEST(Router, AffinityPicksNearestSignatureAndCountsHits)
{
    RouterConfig rc;
    rc.policy = RoutePolicy::Affinity;
    rc.queueLimit = 4;
    Router r(rc, 2);
    auto st = flatStatus(2);
    st[0].installedLoadMean = 10.0;
    st[1].installedLoadMean = 20.0;

    const RouteDecision hi = r.route(st, 19.0);
    EXPECT_EQ(hi.chip, 1);
    EXPECT_TRUE(hi.affinityHit);
    const RouteDecision lo = r.route(st, 11.0);
    EXPECT_EQ(lo.chip, 0);
    EXPECT_TRUE(lo.affinityHit);
    EXPECT_EQ(r.affinityHits(), 2u);
    EXPECT_EQ(r.affinityMisses(), 0u);

    // Equidistant signature: ties break to the lower load, then id.
    st[0].load = 3.0;
    EXPECT_EQ(r.route(st, 15.0).chip, 1);
    st[1].load = 3.0;
    EXPECT_EQ(r.route(st, 15.0).chip, 0);

    // Backpressure off the nearest chip is an affinity miss.
    st[1].queued = 4;
    const RouteDecision miss = r.route(st, 19.0);
    EXPECT_EQ(miss.chip, 0);
    EXPECT_TRUE(miss.diverted);
    EXPECT_FALSE(miss.affinityHit);
    EXPECT_EQ(r.affinityMisses(), 1u);
}

TEST(Router, AdaptiveSkipsDarkChipsStaticDoesNot)
{
    auto st = flatStatus(2);
    st[0].alive = false;

    Router adaptive({}, 2);
    EXPECT_EQ(adaptive.route(st, 0.0).chip, 1);

    RouterConfig pinned;
    pinned.reRouteOnFailure = false;
    Router fixed(pinned, 2);
    // Static pinning ignores health: the dark chip still wins the
    // least-loaded tie and the runtime sheds what lands there.
    EXPECT_EQ(fixed.route(st, 0.0).chip, 0);

    // ...but a chip that doesn't serve the model is never a target,
    // dark or not.
    st[0].servesModel = false;
    EXPECT_EQ(fixed.route(st, 0.0).chip, 1);

    // No eligible chip at all -> shed regardless of queue room.
    st[1].servesModel = false;
    EXPECT_EQ(fixed.route(st, 0.0).chip, RouteDecision::kShed);
    EXPECT_EQ(fixed.shed(), 1u);
}

// --------------------------------------------------- Interconnect

TEST(Interconnect, TransferChargesSerializationAndLatency)
{
    InterconnectConfig ic;
    ic.bytesPerCycle = 48.0;
    ic.latencyCycles = 2000;
    Interconnect fab(ic, 2);

    // ceil(4096 / 48) = 86 cycles of serialization + 2000 latency.
    EXPECT_EQ(fab.transfer(0, true, 1000, 4096,
                           PayloadClass::Request),
              Tick{1000 + 86 + 2000});
    EXPECT_EQ(fab.linkBusyUntil(0, true), Tick{1086});
    EXPECT_EQ(fab.transfers(), 1u);
}

TEST(Interconnect, LinksAreFifoAndIndependent)
{
    InterconnectConfig ic;
    ic.bytesPerCycle = 48.0;
    ic.latencyCycles = 100;
    Interconnect fab(ic, 2);

    // Two back-to-back transfers on chip 0's ingress serialize in
    // issue order: the second starts where the first finished.
    const Tick first = fab.transfer(0, true, 0, 4800,
                                    PayloadClass::Request);
    EXPECT_EQ(first, Tick{100 + 100});
    const Tick second = fab.transfer(0, true, 0, 4800,
                                     PayloadClass::Request);
    EXPECT_EQ(second, Tick{200 + 100});

    // Chip 0's egress and chip 1's links are untouched.
    EXPECT_EQ(fab.linkBusyUntil(0, false), Tick{0});
    EXPECT_EQ(fab.linkBusyUntil(1, true), Tick{0});
    EXPECT_EQ(fab.transfer(1, true, 0, 4800, PayloadClass::Request),
              Tick{100 + 100});
}

TEST(Interconnect, CountsBytesPerClass)
{
    Interconnect fab({}, 1);
    fab.transfer(0, true, 0, 4096, PayloadClass::Request);
    fab.transfer(0, false, 0, 2048, PayloadClass::Response);
    fab.transfer(0, true, 0, 1 << 20, PayloadClass::Weights);
    EXPECT_EQ(fab.requestBytes(), Bytes{4096});
    EXPECT_EQ(fab.responseBytes(), Bytes{2048});
    EXPECT_EQ(fab.weightBytes(), Bytes{1 << 20});
    EXPECT_EQ(fab.transfers(), 3u);
}

// -------------------------------------------------- CircuitBreaker

/** Calibrate a breaker with @p n healthy pings of @p service. */
void
calibrate(CircuitBreaker &brk, int n, double service, Tick &now)
{
    for (int i = 0; i < n; ++i)
        brk.recordPing(now += 1000, service, true);
}

TEST(Breaker, ClosedToOpenToHalfOpenToClosed)
{
    BreakerConfig cfg;
    cfg.latencyTripFactor = 3.0;
    cfg.calibrationPings = 3;
    cfg.ewmaAlpha = 0.4;
    cfg.openCycles = 10'000;
    cfg.halfOpenSuccesses = 2;
    CircuitBreaker brk(cfg);
    Tick now = 0;

    // Healthy calibration: baseline 500, breaker stays closed.
    calibrate(brk, 3, 500.0, now);
    EXPECT_EQ(brk.state(), BreakerState::Closed);
    EXPECT_DOUBLE_EQ(brk.baseline(), 500.0);
    EXPECT_TRUE(brk.admits(now));

    // A straggler dilates the ping service 6x: the EWMA crosses
    // 3x baseline within a few pings and the breaker trips.
    while (brk.state() == BreakerState::Closed)
        brk.recordPing(now += 1000, 3000.0, true);
    EXPECT_EQ(brk.state(), BreakerState::Open);
    EXPECT_EQ(brk.trips(), 1u);
    EXPECT_FALSE(brk.admits(now));

    // Open drains for openCycles, then the next query is probation.
    EXPECT_FALSE(brk.admits(now + cfg.openCycles - 1));
    EXPECT_TRUE(brk.admits(now + cfg.openCycles));
    EXPECT_EQ(brk.state(), BreakerState::HalfOpen);

    // Two healthy probes re-close (instantaneous samples, not the
    // still-poisoned EWMA).
    now += cfg.openCycles;
    brk.recordPing(now += 1000, 500.0, true);
    EXPECT_EQ(brk.state(), BreakerState::HalfOpen);
    brk.recordPing(now += 1000, 500.0, true);
    EXPECT_EQ(brk.state(), BreakerState::Closed);
    EXPECT_EQ(brk.closes(), 1u);
    EXPECT_TRUE(brk.admits(now));
}

TEST(Breaker, HalfOpenFailureReopens)
{
    BreakerConfig cfg;
    cfg.calibrationPings = 1;
    cfg.errorTrip = 2;
    cfg.openCycles = 10'000;
    CircuitBreaker brk(cfg);
    Tick now = 0;
    calibrate(brk, 1, 500.0, now);

    // Two consecutive lost probes trip the error counter.
    brk.recordPing(now += 1000, 0.0, false);
    EXPECT_EQ(brk.state(), BreakerState::Closed);
    brk.recordPing(now += 1000, 0.0, false);
    EXPECT_EQ(brk.state(), BreakerState::Open);
    EXPECT_EQ(brk.trips(), 1u);

    // Probation fails on a still-slow probe: straight back to Open,
    // counted as a reopen, and the cooldown restarts.
    now += cfg.openCycles;
    brk.recordPing(now, 5000.0, true);
    EXPECT_EQ(brk.state(), BreakerState::Open);
    EXPECT_EQ(brk.reopens(), 1u);
    EXPECT_FALSE(brk.admits(now + cfg.openCycles - 1));

    // A lost probe during probation also re-opens.
    now += cfg.openCycles;
    EXPECT_TRUE(brk.admits(now));
    brk.recordPing(now, 0.0, false);
    EXPECT_EQ(brk.state(), BreakerState::Open);
    EXPECT_EQ(brk.reopens(), 2u);
}

TEST(Breaker, SdcDetectionsTripAndResetOnClose)
{
    BreakerConfig cfg;
    cfg.calibrationPings = 1;
    cfg.sdcTrip = 3;
    cfg.openCycles = 10'000;
    cfg.halfOpenSuccesses = 1;
    CircuitBreaker brk(cfg);
    Tick now = 0;
    calibrate(brk, 1, 500.0, now);

    brk.recordSdc(now += 100);
    brk.recordSdc(now += 100);
    EXPECT_EQ(brk.state(), BreakerState::Closed);
    brk.recordSdc(now += 100);
    EXPECT_EQ(brk.state(), BreakerState::Open);
    EXPECT_EQ(brk.trips(), 1u);

    // Close via probation; the SDC counter starts over.
    now += cfg.openCycles;
    EXPECT_TRUE(brk.admits(now));
    brk.recordPing(now += 100, 500.0, true);
    EXPECT_EQ(brk.state(), BreakerState::Closed);
    brk.recordSdc(now += 100);
    brk.recordSdc(now += 100);
    EXPECT_EQ(brk.state(), BreakerState::Closed);
    brk.recordSdc(now += 100);
    EXPECT_EQ(brk.state(), BreakerState::Open);
}

// -------------------------------------- Interconnect gray failures

TEST(Interconnect, ChecksumsDetectAndRetryEveryCorruption)
{
    InterconnectConfig ic;
    ic.bytesPerCycle = 48.0;
    ic.latencyCycles = 100;
    Interconnect fab(ic, 2);
    fab.setSeed(42);
    fab.setChecksums(true);
    fab.setCorruptWindows({{0, ~Tick{0}, 0.5}});

    Tick clean = 0;
    for (int i = 0; i < 200; ++i)
        clean = fab.transfer(0, true, clean, 4800,
                             PayloadClass::Request);
    EXPECT_GT(fab.corruptionsInjected(), 0u);
    EXPECT_EQ(fab.corruptionsDetected(), fab.corruptionsInjected());
    EXPECT_EQ(fab.corruptionsUndetected(), 0u);
    EXPECT_EQ(fab.integrityRetries(), fab.corruptionsDetected());
    EXPECT_EQ(fab.sdcDetected(0), fab.corruptionsDetected());
    EXPECT_EQ(fab.sdcDetected(1), 0u);
    // Every retry re-serializes the payload on the FIFO link.
    EXPECT_EQ(fab.retryBytes(),
              Bytes{4800} * fab.integrityRetries());
    EXPECT_GT(clean,
              Tick{200 * 100} + Tick{200 * 100}); // dilated by retries
}

TEST(Interconnect, WithoutChecksumsCorruptionIsSilent)
{
    Interconnect fab({}, 1);
    fab.setSeed(42);
    fab.setCorruptWindows({{0, ~Tick{0}, 0.5}});
    for (int i = 0; i < 100; ++i)
        fab.transfer(0, true, 0, 4096, PayloadClass::Request);
    EXPECT_GT(fab.corruptionsInjected(), 0u);
    EXPECT_EQ(fab.corruptionsUndetected(), fab.corruptionsInjected());
    EXPECT_EQ(fab.corruptionsDetected(), 0u);
    EXPECT_EQ(fab.retryBytes(), Bytes{0});
    EXPECT_EQ(fab.sdcDetected(0), 0u);
}

TEST(Interconnect, FlakyWindowRetransmitsInsideWindowOnly)
{
    InterconnectConfig ic;
    ic.bytesPerCycle = 48.0;
    ic.latencyCycles = 0;
    Interconnect fab(ic, 2);
    fab.setSeed(7);
    fab.setFlakyWindows(0, {{1000, 2000, 0.5}});

    // Outside the window: no RNG draws, exact clean delivery.
    EXPECT_EQ(fab.transfer(0, true, 0, 4800, PayloadClass::Request),
              Tick{100});
    EXPECT_EQ(fab.linkRetries(), 0u);

    // Inside: ~half the attempts are lost and retransmitted.
    for (int i = 0; i < 100; ++i)
        fab.transfer(0, true, 1000, 48, PayloadClass::Request);
    EXPECT_GT(fab.linkRetries(), 0u);
    EXPECT_EQ(fab.retryBytes(), Bytes{48} * fab.linkRetries());
    // Chip 1's links are clean: exact delivery, no new retries.
    const std::uint64_t before = fab.linkRetries();
    EXPECT_EQ(fab.transfer(1, true, 1500, 4800,
                           PayloadClass::Request),
              Tick{1600});
    EXPECT_EQ(fab.linkRetries(), before);
}

// ----------------------------------------------------- PodRuntime

using test::smokeServeConfig;
using test::TestWorkload;

PodReport
runPod(PodConfig pc, std::vector<PodWorkload> wls)
{
    const arch::HwConfig hw;
    PodRuntime rt(std::move(wls), hw,
                  baselines::schedulerConfig(baselines::Design::Adyna),
                  baselines::execPolicy(baselines::Design::Adyna),
                  std::move(pc));
    kernels::KernelStoreCache stores;
    rt.setSharedStoreCache(&stores);
    return rt.run();
}

PodReport
skipnetPod(PodConfig pc)
{
    static TestWorkload w("skipnet", 8);
    return runPod(std::move(pc), {{&w.dg, w.tc, "skipnet", 1.0}});
}

/** chip_fail plan text striking @p chip about a third of the way
 * through @p requests pod arrivals (1 GHz clock, 5e5 r/s). */
std::string
midRunStrike(unsigned requests, const char *extra = "", int chip = 1)
{
    const arch::HwConfig hw;
    const double ticksPerSec = hw.tech.freqGhz * 1e9;
    const auto at = static_cast<Tick>(requests / 3 * ticksPerSec /
                                      smokeServeConfig(0, 1)
                                          .arrival.ratePerSec);
    return "chip_fail@" + std::to_string(at) +
           ":chip=" + std::to_string(chip) + extra;
}

/** Run a 1-chip pod and a ServeRuntime on the same serving config,
 * with @p plan as the pod chip's fault plan and as
 * ServeConfig.faultPlan, and expect byte-identical serve reports. */
PodReport
expectSingleChipPodMatchesServe(const TestWorkload &w,
                                const serve::ServeConfig &sc,
                                const fault::FaultPlan &plan)
{
    const arch::HwConfig hw;
    const auto schedCfg =
        baselines::schedulerConfig(baselines::Design::Adyna);
    const auto policy =
        baselines::execPolicy(baselines::Design::Adyna);

    serve::ServeConfig direct = sc;
    direct.faultPlan = plan;
    serve::ServeRuntime rt(w.dg, w.tc, hw, schedCfg, policy, direct,
                           w.name);
    kernels::KernelStoreCache directStores;
    rt.setSharedStoreCache(&directStores);
    const std::string want = serve::toJson(rt.run());

    PodConfig pc;
    pc.chips = 1;
    pc.serve = sc;
    if (!plan.empty())
        pc.chipFaultPlans = {plan};
    PodRuntime pod({{&w.dg, w.tc, w.name, 1.0}}, hw, schedCfg, policy,
                   pc);
    kernels::KernelStoreCache podStores;
    pod.setSharedStoreCache(&podStores);
    const PodReport pr = pod.run();

    EXPECT_EQ(pr.chipCount, 1);
    EXPECT_EQ(pr.chips.size(), 1u);
    if (pr.chips.size() == 1) {
        EXPECT_EQ(serve::toJson(pr.chips[0].serve), want);
        EXPECT_EQ(pr.requests, pr.chips[0].serve.requests);
        EXPECT_EQ(pr.chips[0].model, w.name);
        EXPECT_FALSE(pr.chips[0].dark);
    }
    // No fabric: nothing crossed a chip boundary.
    EXPECT_EQ(pr.icTransfers, 0u);
    return pr;
}

TEST(PodRuntime, SingleChipPodMatchesServeRuntimeByteForByte)
{
    TestWorkload w("skipnet", 8);
    expectSingleChipPodMatchesServe(w, smokeServeConfig(7, 200), {});

    // A pod chip's own fault plan replays exactly like a single-chip
    // runtime's: one tile failure forces one fail-over, and the
    // probe-drop window drops probes.
    TestWorkload drifting("skipnet", 8, 0.9);
    const PodReport pr = expectSingleChipPodMatchesServe(
        drifting, smokeServeConfig(7, 400),
        fault::parseFaultPlanOrDie(
            "tile_fail@200000:tile=17;"
            "probe_drop@100000:prob=0.3,duration=300000"));
    ASSERT_EQ(pr.chips.size(), 1u);
    EXPECT_EQ(pr.chips[0].serve.failovers, 1);
    EXPECT_GT(pr.chips[0].serve.probeDrops, 0u);

    // Tile 100 fails over, then every tile dies: with no survivor
    // both runtimes keep the installed schedule (one fail-over).
    serve::ServeConfig slow = smokeServeConfig(5, 200);
    slow.arrival.ratePerSec = 2e5;
    const arch::HwConfig hw;
    const PodReport dead = expectSingleChipPodMatchesServe(
        w, slow, test::everyTileDeadPlan(hw));
    ASSERT_EQ(dead.chips.size(), 1u);
    EXPECT_EQ(dead.chips[0].serve.failovers, 1);
    EXPECT_EQ(dead.chips[0].serve.failedTiles, hw.tiles());

    // The on-drift search and the watchdog: a generous budget (two
    // re-schedules, one of them searched) and one tight enough to
    // abandon a rebuild.
    TestWorkload pabee("pabee", 8);
    pabee.tc = test::searchDriftTrace(pabee.tc);
    const PodReport searched = expectSingleChipPodMatchesServe(
        pabee, test::searchServeConfig(true, 40'000'000, 11), {});
    ASSERT_EQ(searched.chips.size(), 1u);
    EXPECT_EQ(searched.chips[0].serve.reschedules, 2);
    EXPECT_EQ(searched.chips[0].serve.searchReschedules, 1);
    const PodReport abandoned = expectSingleChipPodMatchesServe(
        pabee, test::searchServeConfig(true, 15000, 11), {});
    ASSERT_EQ(abandoned.chips.size(), 1u);
    EXPECT_EQ(abandoned.chips[0].serve.watchdogFallbacks, 1);
}

TEST(PodRuntime, SingleChipPodGoesDarkOnChipFail)
{
    // chip_fail darkens a 1-chip pod exactly as it darkens one chip
    // of a larger pod: every request not dispatched by the strike is
    // lost, shed at the front door (adaptive: no live chip) or
    // counted as a dark-chip shed (static pinning).
    PodConfig pc;
    pc.chips = 1;
    pc.serve = smokeServeConfig(7, 300);
    pc.faultPlan = fault::parseFaultPlanOrDie("chip_fail@200000:chip=0");
    const PodReport adaptive = skipnetPod(pc);
    pc.router.reRouteOnFailure = false;
    const PodReport pinned = skipnetPod(pc);

    for (const PodReport *r : {&adaptive, &pinned}) {
        EXPECT_EQ(r->chipFailEvents, 1u);
        ASSERT_EQ(r->chips.size(), 1u);
        EXPECT_TRUE(r->chips[0].dark);
        EXPECT_GT(r->requests, 0u);
        EXPECT_LT(r->requests, 300u);
        EXPECT_EQ(r->icTransfers, 0u);
    }
    EXPECT_EQ(adaptive.requests, pinned.requests);
    EXPECT_EQ(adaptive.shedRequests, 300u - adaptive.requests);
    EXPECT_EQ(adaptive.darkChipSheds, 0u);
    EXPECT_EQ(pinned.darkChipSheds, 300u - pinned.requests);
    EXPECT_EQ(pinned.shedRequests, 0u);
}

TEST(PodRuntimeDeathTest, ServeFaultPlanIsRejectedAtAnyChipCount)
{
    // Pod faults belong in faultPlan / chipFaultPlans. A plan in the
    // per-chip serving template would strike a 1-chip pod but be
    // ignored by the K-chip loop, so the pod refuses it for every K.
    for (const int chips : {1, 2}) {
        PodConfig pc;
        pc.chips = chips;
        pc.serve = smokeServeConfig(7, 50);
        pc.serve.faultPlan =
            fault::parseFaultPlanOrDie("tile_fail@200000:tile=17");
        EXPECT_EXIT(skipnetPod(pc), ::testing::ExitedWithCode(1),
                    "chipFaultPlans")
            << chips << " chips";
    }
}

TEST(PodRuntimeDeathTest, AdmissionControlIsRejectedAtAnyChipCount)
{
    // The router's queueLimit is the pod's admission backpressure.
    for (const int chips : {1, 2}) {
        PodConfig pc;
        pc.chips = chips;
        pc.serve = smokeServeConfig(7, 50);
        pc.serve.admissionControl = true;
        EXPECT_DEATH(skipnetPod(pc), "admissionControl")
            << chips << " chips";
    }
}

TEST(PodRuntimeDeathTest, ChipFaultPlanRejectsPodScopeKinds)
{
    // A chip's own plan replays on that chip's FaultInjector, which
    // refuses the pod-scope kinds at every K.
    for (const int chips : {1, 2}) {
        PodConfig pc;
        pc.chips = chips;
        pc.serve = smokeServeConfig(7, 50);
        pc.chipFaultPlans.assign(
            static_cast<std::size_t>(chips),
            fault::parseFaultPlanOrDie("chip_fail@1000:chip=0"));
        EXPECT_EXIT(skipnetPod(pc), ::testing::ExitedWithCode(1),
                    "PodConfig::faultPlan")
            << chips << " chips";
    }
}

TEST(PodRuntime, TwoChipRunIsDeterministic)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(11, 200);
    const PodReport a = skipnetPod(pc);
    const PodReport b = skipnetPod(pc);
    EXPECT_EQ(toJson(a), toJson(b));

    ASSERT_EQ(a.chips.size(), 2u);
    EXPECT_EQ(a.chips[0].id, 0);
    EXPECT_EQ(a.chips[1].id, 1);
    EXPECT_EQ(a.policy, "least_loaded");
    EXPECT_EQ(a.placement, "replicated");
    // No faults, no queue limit: every arrival lands and completes.
    EXPECT_EQ(a.requests, 200u);
    EXPECT_EQ(a.shedRequests, 0u);
    EXPECT_EQ(a.darkChipSheds, 0u);
    EXPECT_GT(a.chips[0].routed, 0u);
    EXPECT_GT(a.chips[1].routed, 0u);
    EXPECT_EQ(a.chips[0].routed + a.chips[1].routed, 200u);
    // Every routed request and response crossed the fabric, and both
    // chips streamed their weights in at bring-up.
    EXPECT_GT(a.icRequestBytes, Bytes{0});
    EXPECT_GT(a.icResponseBytes, Bytes{0});
    EXPECT_GT(a.icWeightBytes, Bytes{0});
    EXPECT_GT(a.goodputRps, 0.0);
    EXPECT_GT(a.p99Ms, 0.0);
}

TEST(PodRuntime, ChipFailDrainsAndReRoutesOntoSurvivors)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(13, 240);
    pc.faultPlan = fault::parseFaultPlanOrDie(midRunStrike(240));
    const PodReport r = skipnetPod(pc);

    EXPECT_EQ(r.chipFailEvents, 1u);
    EXPECT_EQ(r.chipHeals, 0u);
    ASSERT_EQ(r.chips.size(), 2u);
    EXPECT_FALSE(r.chips[0].dark);
    EXPECT_TRUE(r.chips[1].dark);
    // Adaptive fail-over loses nothing: the dark chip's queue drains
    // onto the survivor and later arrivals steer around it.
    EXPECT_GT(r.drained, 0u);
    EXPECT_EQ(r.rerouted, r.drained);
    EXPECT_EQ(r.chips[0].rerouted, r.rerouted);
    EXPECT_EQ(r.chips[1].drained, r.drained);
    EXPECT_EQ(r.darkChipSheds, 0u);
    EXPECT_EQ(r.requests + r.shedRequests, 240u);
}

TEST(PodRuntime, StaticPinningShedsDarkChipTraffic)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(13, 240);
    pc.faultPlan = fault::parseFaultPlanOrDie(midRunStrike(240));
    pc.router.reRouteOnFailure = false;
    const PodReport r = skipnetPod(pc);

    // The router keeps dispatching to the dark chip; everything that
    // lands there (and its drained queue) is lost.
    EXPECT_GT(r.darkChipSheds, 0u);
    EXPECT_EQ(r.rerouted, 0u);
    EXPECT_EQ(r.requests + r.shedRequests + r.darkChipSheds, 240u);

    PodConfig adaptive = pc;
    adaptive.router.reRouteOnFailure = true;
    const PodReport a = skipnetPod(adaptive);
    EXPECT_GT(a.requests, r.requests);
}

TEST(PodRuntime, HealedChipRejoinsWithWeightRestream)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(17, 240);
    const PodReport base = skipnetPod(pc);

    PodConfig healed = pc;
    healed.faultPlan = fault::parseFaultPlanOrDie(
        midRunStrike(240, ",heal=100000"));
    const PodReport r = skipnetPod(healed);

    EXPECT_EQ(r.chipFailEvents, 1u);
    EXPECT_EQ(r.chipHeals, 1u);
    ASSERT_EQ(r.chips.size(), 2u);
    EXPECT_FALSE(r.chips[1].dark);
    EXPECT_EQ(r.requests + r.shedRequests, 240u);
    // Rejoining re-streams the chip's weight working set on top of
    // the two bring-up streams the fault-free run pays.
    EXPECT_GT(r.icWeightBytes, base.icWeightBytes);
    EXPECT_EQ(base.icWeightBytes % 2, Bytes{0});
    EXPECT_EQ(r.icWeightBytes, base.icWeightBytes * 3 / 2);
}

TEST(PodRuntime, PartitionedPlacementRoutesByModel)
{
    static TestWorkload wa("skipnet", 8);
    static TestWorkload wb("pabee", 8);
    PodConfig pc;
    pc.chips = 3;
    pc.placement = Placement::Partitioned;
    pc.serve = smokeServeConfig(19, 240);
    const PodReport r =
        runPod(pc, {{&wa.dg, wa.tc, "skipnet", 0.75},
                    {&wb.dg, wb.tc, "pabee", 0.25}});

    EXPECT_EQ(r.placement, "partitioned");
    ASSERT_EQ(r.chips.size(), 3u);
    // Largest-remainder sizing: 0.75 of 3 chips -> 2 for skipnet,
    // the floor of 1 for pabee; groups are contiguous.
    EXPECT_EQ(r.chips[0].model, "skipnet");
    EXPECT_EQ(r.chips[1].model, "skipnet");
    EXPECT_EQ(r.chips[2].model, "pabee");
    for (const ChipResult &c : r.chips) {
        EXPECT_GT(c.routed, 0u);
        EXPECT_GT(c.serve.requests, 0u);
    }
    EXPECT_EQ(r.requests + r.shedRequests, 240u);
}

TEST(PodRuntime, HedgeDedupCompletesExactlyOnce)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(11, 240);
    // Fast fabric: the bring-up weight stream clears the ingress
    // links early, so deliveries (and hedge ages) track arrivals.
    pc.interconnect.bytesPerCycle = 4800.0;
    pc.reliability.hedging = true;
    // Fire hedges at 2-10% of the 1 ms deadline: far below the x8
    // straggler's service time, so stuck requests always hedge.
    pc.reliability.hedgeMinDeadlineFraction = 0.02;
    pc.reliability.hedgeMaxDeadlineFraction = 0.1;
    pc.faultPlan = fault::parseFaultPlanOrDie(
        "chip_slow@0:chip=1,factor=8");
    const PodReport r = skipnetPod(pc);

    EXPECT_TRUE(r.reliabilityActive);
    const PodReliabilityStats &s = r.reliability;
    EXPECT_GT(s.hedges, 0u);
    // Exactly-once accounting: every hedge's losing copy is either
    // cancelled (queued / in-flight) or finishes as a discarded
    // duplicate — never both, never neither.
    EXPECT_EQ(s.hedgeCancelled + s.wastedCompletions, s.hedges);
    EXPECT_LE(s.hedgeWins, s.hedges);
    // Each pod arrival completes exactly once despite duplication.
    EXPECT_EQ(r.requests + r.shedRequests, 240u);
    ASSERT_EQ(r.chips.size(), 2u);
    EXPECT_EQ(r.chips[0].hedged + r.chips[1].hedged, s.hedges);

    // Hedged runs replay deterministically, and the reliability
    // aggregate is serialized.
    const PodReport again = skipnetPod(pc);
    EXPECT_EQ(toJson(r), toJson(again));
    EXPECT_NE(toJson(r).find("\"router_stats\""), std::string::npos);
    EXPECT_NE(toJson(r).find("\"hedges\": "), std::string::npos);
}

TEST(PodRuntime, BreakerTripsOnStragglerThenRecloses)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(13, 240);
    pc.reliability.breaker = true;
    // Fast fabric (see above): probes measure the chip promptly
    // instead of queueing behind the bring-up weight stream.
    pc.interconnect.bytesPerCycle = 4800.0;
    // The smoke horizon is ~500k ticks, so probe and cool down far
    // faster than the serving-scale defaults.
    pc.reliability.probeIntervalCycles = 20'000;
    pc.reliability.breakerCfg.openCycles = 50'000;
    // Slow window [100k, 300k): calibration finishes before it, the
    // EWMA trips inside it, and probation passes after it heals.
    pc.faultPlan = fault::parseFaultPlanOrDie(
        "chip_slow@100000:chip=1,factor=8,heal=200000");
    const PodReport r = skipnetPod(pc);

    EXPECT_TRUE(r.reliabilityActive);
    const PodReliabilityStats &s = r.reliability;
    EXPECT_GT(s.probes, 0u);
    EXPECT_EQ(s.probeFailures, 0u); // slow, never dark
    EXPECT_GE(s.breakerTrips, 1u);
    EXPECT_GE(s.breakerCloses, 1u) << toJson(r)
                                   << " horizon=" << r.horizonTicks;
    // An open breaker drains organically: nothing is lost to it.
    EXPECT_EQ(r.requests + r.shedRequests, 240u);
    EXPECT_GT(s.icProbeBytes, Bytes{0});
}

TEST(PodRuntime, ChecksumsCatchEveryPodCorruption)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(17, 160);
    pc.reliability.checksums = true;
    pc.faultPlan =
        fault::parseFaultPlanOrDie("payload_corrupt@0:prob=0.2");
    const PodReport r = skipnetPod(pc);

    EXPECT_TRUE(r.reliabilityActive);
    const PodReliabilityStats &s = r.reliability;
    EXPECT_GT(s.corruptionsInjected, 0u);
    EXPECT_EQ(s.corruptionsDetected, s.corruptionsInjected);
    EXPECT_EQ(s.corruptionsUndetected, 0u);
    EXPECT_EQ(s.integrityRetries, s.corruptionsDetected);
    EXPECT_GT(s.icRetryBytes, Bytes{0});
    // The SDC counters attribute each detection to a chip.
    ASSERT_EQ(r.chips.size(), 2u);
    EXPECT_EQ(r.chips[0].sdc + r.chips[1].sdc,
              s.corruptionsDetected);
    // Detect-and-retry delivers everything: corruption costs
    // latency, not requests.
    EXPECT_EQ(r.requests + r.shedRequests, 160u);
}

TEST(PodRuntime, DefaultPodReportHasNoReliabilityJson)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(19, 120);
    const PodReport r = skipnetPod(pc);

    // All reliability defaults off: the report says so and the JSON
    // keeps the pre-reliability byte layout.
    EXPECT_FALSE(r.reliabilityActive);
    const std::string json = toJson(r);
    EXPECT_EQ(json.find("router_stats"), std::string::npos);
    EXPECT_EQ(json.find("hedged"), std::string::npos);
    EXPECT_EQ(json.find("\"sdc\""), std::string::npos);
}

TEST(PodRuntime, HedgeExactlyOnceUnderChipLoss)
{
    // A chip_fail drain that drops a hedge copy whose twin still runs
    // elsewhere must count that copy as the hedge's cancelled loser.
    PodConfig pc;
    pc.chips = 3;
    pc.serve = smokeServeConfig(11, 360);
    pc.interconnect.bytesPerCycle = 4800.0;
    pc.reliability.hedging = true;
    pc.reliability.hedgeMinDeadlineFraction = 0.02;
    pc.reliability.hedgeMaxDeadlineFraction = 0.1;
    // Chip 1 straggles from the start, so requests stuck there hedge
    // onto the others; it goes dark at arrival 80 with hedged copies
    // queued, and chip 2 follows at arrival 160.
    pc.faultPlan = fault::parseFaultPlanOrDie(
        "chip_slow@0:chip=1,factor=8;" + midRunStrike(240) + ";" +
        midRunStrike(480, "", 2));
    const PodReport r = skipnetPod(pc);

    EXPECT_EQ(r.chipFailEvents, 2u);
    const PodReliabilityStats &s = r.reliability;
    EXPECT_GT(s.hedges, 0u);
    EXPECT_EQ(s.hedgeCancelled + s.wastedCompletions, s.hedges);
    EXPECT_EQ(r.requests + r.shedRequests + r.darkChipSheds, 360u);
}

TEST(PodRuntime, TimeoutsAccountEveryRequest)
{
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(11, 240);
    // Fast fabric (see above): deliveries track arrivals, so only
    // the x8 straggler pushes requests past their deadline.
    pc.interconnect.bytesPerCycle = 4800.0;
    pc.reliability.timeoutDeadlineFactor = 1.0;
    pc.faultPlan = fault::parseFaultPlanOrDie(
        "chip_slow@0:chip=1,factor=8");
    const PodReport r = skipnetPod(pc);

    const PodReliabilityStats &s = r.reliability;
    EXPECT_GT(s.timeouts, 0u);
    EXPECT_GT(r.requests, 0u);
    EXPECT_EQ(r.requests + r.shedRequests + r.darkChipSheds +
                  s.timeouts,
              240u);
    EXPECT_EQ(toJson(r), toJson(skipnetPod(pc)));
}

/** Two drifting SkipNet chips with the on-drift schedule search. */
PodReport
searchPod(Cycles watchdog_budget)
{
    static TestWorkload w("skipnet", 8, 0.9);
    PodConfig pc;
    pc.chips = 2;
    pc.serve = smokeServeConfig(11, 2400);
    pc.serve.drift.windowRequests = 32;
    pc.serve.rescheduleBudgetCycles = watchdog_budget;
    pc.serve.searchOnDrift = true;
    pc.serve.search.chains = 2;
    pc.serve.search.mutationBudget = 200;
    pc.serve.search.materializeTop = 2;
    return runPod(std::move(pc), {{&w.dg, w.tc, "skipnet", 1.0}});
}

TEST(PodRuntime, SearchOnDriftSearchesChipReschedules)
{
    // searchOnDrift applies to every chip's drift re-schedules, not
    // only to the single-chip runtime's.
    const PodReport r = searchPod(0);
    int reschedules = 0;
    for (const ChipResult &c : r.chips) {
        EXPECT_TRUE(c.serve.searchActive);
        reschedules += c.serve.reschedules;
        if (c.serve.reschedules > 0) {
            EXPECT_GT(c.serve.search.candidatesTried, 0u)
                << "chip " << c.id;
        }
    }
    ASSERT_GT(reschedules, 0) << "drift must trigger";
    EXPECT_NE(toJson(r).find("search_tried"), std::string::npos);

    // A watchdog budget caps every chip's rebuild + search charge.
    const Cycles budget = 40'000'000;
    const PodReport bounded = searchPod(budget);
    std::uint64_t tried = 0;
    for (const ChipResult &c : bounded.chips) {
        tried += c.serve.search.candidatesTried;
        EXPECT_LE(c.serve.maxRescheduleCycles, budget)
            << "chip " << c.id;
    }
    EXPECT_GT(tried, 0u);
}

TEST(PodRuntime, RoundRobinSpreadsArrivalsEvenly)
{
    PodConfig pc;
    pc.chips = 4;
    pc.router.policy = RoutePolicy::RoundRobin;
    pc.serve = smokeServeConfig(23, 240);
    const PodReport r = skipnetPod(pc);

    EXPECT_EQ(r.policy, "round_robin");
    ASSERT_EQ(r.chips.size(), 4u);
    std::uint64_t lo = r.chips[0].routed, hi = r.chips[0].routed;
    for (const ChipResult &c : r.chips) {
        lo = std::min(lo, c.routed);
        hi = std::max(hi, c.routed);
    }
    EXPECT_LE(hi - lo, 1u);
    EXPECT_EQ(r.requests, 240u);
}

/** Model names are escaped and the output is sized to fit, with and
 * without the reliability block: a quote, a backslash and a
 * 4000-character model name each leave a report that parses, with
 * every per-chip field intact. */
TEST(PodJson, EscapesModelNamesAndKeepsEveryField)
{
    const std::string longName(4000, 'm');
    const std::pair<std::string, std::string> names[] = {
        {"my \"model\" v2", "my \\\"model\\\" v2"},
        {"dir\\model", "dir\\\\model"},
        {longName, longName}};
    for (const bool reliability : {false, true}) {
        PodReport r;
        r.policy = "least_loaded";
        r.placement = "replicated";
        r.reliabilityActive = reliability;
        for (const auto &[name, escaped] : names) {
            ChipResult c;
            c.id = static_cast<int>(r.chips.size());
            c.model = name;
            c.serve.workload = name;
            r.chips.push_back(c);
        }
        r.chipCount = static_cast<int>(r.chips.size());
        const std::string json = toJson(r);
        EXPECT_TRUE(test::isValidJson(json)) << json.substr(0, 80);
        for (const auto &[name, escaped] : names) {
            const std::string tail =
                reliability ? "\"hedged\": 0, \"sdc\": 0, " : "";
            EXPECT_NE(json.find("\"model\": \"" + escaped +
                                "\", \"dark\": false, \"routed\": 0, "
                                "\"rerouted\": 0, \"drained\": 0, " +
                                tail + "\"workload\": \"" + escaped +
                                "\""),
                      std::string::npos)
                << name.substr(0, 16);
        }
        EXPECT_EQ(json.find("\"router_stats\"") != std::string::npos,
                  reliability);
        EXPECT_TRUE(json.ends_with("}]}"));
    }
}

} // namespace

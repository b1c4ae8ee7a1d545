/**
 * @file
 * Tests for the fault-injection subsystem: FaultPlan grammar
 * round-trips and rejection of malformed text, deterministic random
 * plans, chip healthy-tile bookkeeping, NoC link-down detours and
 * probe-drop retry accounting, injector timelines (strike + heal),
 * degraded scheduling onto survivors, degraded lockstep execution,
 * the serve-side fail-over / watchdog / admission-control paths —
 * including the empty-plan byte-identity guarantee — and the
 * rejection of pod-scope kinds by every single-chip runtime.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "arch/chip.hh"
#include "baselines/designs.hh"
#include "core/report_io.hh"
#include "core/system.hh"
#include "fault/fault.hh"
#include "graph/parser.hh"
#include "kernels/store_cache.hh"
#include "models/models.hh"
#include "serve/server.hh"
#include "serve_fixtures.hh"

namespace {

using namespace adyna;
using namespace adyna::fault;

// ------------------------------------------------------- FaultPlan

TEST(FaultPlan, ParseRoundTripsThroughStr)
{
    const std::string text =
        "tile_fail@5000:tile=17;"
        "tile_fail@9000:tile=3,duration=1000;"
        "link_down@100:tile=7,dir=E;"
        "link_degrade@200:tile=8,dir=S,factor=0.25,duration=50;"
        "probe_drop@300:prob=0.5,duration=400;"
        "store_fit_fail@600:duration=100;"
        "chip_fail@700:chip=1;"
        "chip_fail@800:chip=3,heal=2500";
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(parseFaultPlan(text, plan, &err)) << err;
    EXPECT_EQ(plan.events.size(), 8u);

    FaultPlan again;
    ASSERT_TRUE(parseFaultPlan(plan.str(), again, &err)) << err;
    EXPECT_EQ(plan, again);
}

TEST(FaultPlan, ParseNormalizesEventOrder)
{
    FaultPlan plan;
    ASSERT_TRUE(parseFaultPlan(
        "tile_fail@900:tile=2;tile_fail@100:tile=5", plan));
    ASSERT_EQ(plan.events.size(), 2u);
    EXPECT_EQ(plan.events[0].at, 100u);
    EXPECT_EQ(plan.events[1].at, 900u);
}

TEST(FaultPlan, ParseRejectsMalformedText)
{
    const char *bad[] = {
        "nonsense@10:tile=1",       // unknown kind
        "tile_fail",                // missing tick
        "tile_fail@x:tile=1",       // non-numeric tick
        "tile_fail@10:bogus=1",     // unknown key
        "link_down@10:tile=1",      // missing dir
        "link_down@10:tile=1,dir=Q",// bad direction
        "link_degrade@10:tile=1,dir=E,factor=1.5", // factor >= 1
        "link_degrade@10:tile=1,dir=E,factor=0",   // factor <= 0
        "probe_drop@10:prob=2",     // prob > 1
        "tile_fail@10:tile=",       // empty value
        "chip_fail@10",             // missing chip
        "chip_fail@10:chip=-1",     // negative chip
        "chip_fail@10:chip=1,duration=5", // chip_fail spells it heal=
        "chip_fail@10:chip=1,tile=0",     // tile is not chip scope
        "tile_fail@10:tile=1,chip=0",     // chip is not tile scope
        "tile_fail@10:tile=1,dir=E",      // stray key for the kind
        "@@@",
    };
    for (const char *text : bad) {
        FaultPlan plan;
        ASSERT_TRUE(parseFaultPlan("tile_fail@1:tile=1", plan));
        std::string err;
        EXPECT_FALSE(parseFaultPlan(text, plan, &err)) << text;
        EXPECT_FALSE(err.empty()) << text;
        // Failed parses must leave the plan untouched.
        EXPECT_EQ(plan.events.size(), 1u) << text;
    }
}

TEST(FaultPlan, EmptyTextIsEmptyPlan)
{
    FaultPlan plan;
    ASSERT_TRUE(parseFaultPlan("", plan));
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.str(), "");
    // Stray separators are skippable empty events, not errors.
    ASSERT_TRUE(parseFaultPlan(";;;", plan));
    EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, RandomPlanIsDeterministicPerSeed)
{
    RandomFaultConfig cfg;
    cfg.tileFails = 2;
    cfg.linkDowns = 2;
    cfg.linkDegrades = 1;
    cfg.probeDropWindows = 1;
    cfg.storeFitWindows = 1;
    const FaultPlan a = randomFaultPlan(cfg, 7);
    const FaultPlan b = randomFaultPlan(cfg, 7);
    const FaultPlan c = randomFaultPlan(cfg, 8);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(a.events.size(), 7u);
    // Events land inside the configured horizon, and round-trip.
    for (const FaultEvent &e : a.events) {
        EXPECT_GE(e.at, cfg.horizon / 10);
        EXPECT_LE(e.at, cfg.horizon);
    }
    FaultPlan parsed;
    std::string err;
    ASSERT_TRUE(parseFaultPlan(a.str(), parsed, &err)) << err;
    EXPECT_EQ(a, parsed);
}

TEST(FaultPlan, ChipFailRoundTripsAndOrdersByChip)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(parseFaultPlan(
        "chip_fail@500:chip=2,heal=1000;chip_fail@500:chip=0", plan,
        &err))
        << err;
    ASSERT_EQ(plan.events.size(), 2u);
    // normalize() orders equal-tick events by (kind, tile, dir,
    // chip): the chip index is the tie-break here.
    EXPECT_EQ(plan.events[0].chip, 0);
    EXPECT_EQ(plan.events[1].chip, 2);
    EXPECT_EQ(plan.events[1].duration, 1000u);
    EXPECT_EQ(plan.str(),
              "chip_fail@500:chip=0;chip_fail@500:chip=2,heal=1000");

    FaultPlan again;
    ASSERT_TRUE(parseFaultPlan(plan.str(), again, &err)) << err;
    EXPECT_EQ(plan, again);
}

TEST(FaultPlan, RandomPlanCoversChipFails)
{
    RandomFaultConfig cfg;
    cfg.tileFails = 0;
    cfg.linkDowns = 0;
    cfg.linkDegrades = 0;
    cfg.probeDropWindows = 0;
    cfg.chipFails = 4;
    cfg.podChips = 3;
    const FaultPlan plan = randomFaultPlan(cfg, 11);
    EXPECT_EQ(plan.events.size(), 4u);
    for (const FaultEvent &e : plan.events) {
        EXPECT_EQ(e.kind, FaultKind::ChipFail);
        EXPECT_GE(e.chip, 0);
        EXPECT_LT(e.chip, cfg.podChips);
    }
    FaultPlan parsed;
    std::string err;
    ASSERT_TRUE(parseFaultPlan(plan.str(), parsed, &err)) << err;
    EXPECT_EQ(plan, parsed);
}

TEST(FaultPlan, GrayKindsRoundTripThroughStr)
{
    FaultPlan plan;
    std::string err;
    ASSERT_TRUE(parseFaultPlan(
        "chip_slow@100:chip=1,factor=4.5;"
        "chip_slow@200:chip=0,factor=2,heal=5000;"
        "link_flaky@300:chip=2,prob=0.25,heal=1000;"
        "payload_corrupt@400:prob=0.05",
        plan, &err))
        << err;
    ASSERT_EQ(plan.events.size(), 4u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::ChipSlow);
    EXPECT_EQ(plan.events[0].chip, 1);
    EXPECT_DOUBLE_EQ(plan.events[0].factor, 4.5);
    EXPECT_EQ(plan.events[0].duration, 0u); // permanent
    EXPECT_EQ(plan.events[1].duration, 5000u);
    EXPECT_EQ(plan.events[2].kind, FaultKind::LinkFlaky);
    EXPECT_DOUBLE_EQ(plan.events[2].factor, 0.25);
    EXPECT_EQ(plan.events[3].kind, FaultKind::PayloadCorrupt);
    EXPECT_DOUBLE_EQ(plan.events[3].factor, 0.05);

    FaultPlan again;
    ASSERT_TRUE(parseFaultPlan(plan.str(), again, &err)) << err;
    EXPECT_EQ(plan, again);

    EXPECT_TRUE(podScopeFault(FaultKind::ChipFail));
    EXPECT_TRUE(podScopeFault(FaultKind::ChipSlow));
    EXPECT_TRUE(podScopeFault(FaultKind::LinkFlaky));
    EXPECT_TRUE(podScopeFault(FaultKind::PayloadCorrupt));
    EXPECT_FALSE(podScopeFault(FaultKind::TileFail));
    EXPECT_FALSE(podScopeFault(FaultKind::ProbeDrop));
}

TEST(FaultPlan, GrayKindsRejectBadRanges)
{
    const char *bad[] = {
        "chip_slow@10:chip=1",              // missing factor
        "chip_slow@10:factor=2",            // missing chip
        "chip_slow@10:chip=1,factor=1",     // factor must be > 1
        "chip_slow@10:chip=1,factor=0.5",   // dilation, not speedup
        "chip_slow@10:chip=1,factor=2,prob=0.5", // stray key
        "link_flaky@10:chip=1",             // missing prob
        "link_flaky@10:prob=0.5",           // missing chip
        "link_flaky@10:chip=1,prob=0",      // prob in (0,1) open
        "link_flaky@10:chip=1,prob=1",      // p=1 never delivers
        "payload_corrupt@10",               // missing prob
        "payload_corrupt@10:prob=1",        // p=1 never delivers
        "payload_corrupt@10:prob=0.5,chip=1", // fabric scope
        "chip_slow@10:chip=1,factor=2,duration=5", // pod heal=
    };
    for (const char *text : bad) {
        FaultPlan plan;
        std::string err;
        EXPECT_FALSE(parseFaultPlan(text, plan, &err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(FaultPlan, RandomPlanCoversGrayKinds)
{
    RandomFaultConfig cfg;
    cfg.tileFails = 0;
    cfg.linkDowns = 0;
    cfg.linkDegrades = 0;
    cfg.probeDropWindows = 0;
    cfg.chipSlows = 3;
    cfg.linkFlakies = 2;
    cfg.payloadCorrupts = 2;
    cfg.podChips = 4;
    cfg.transientFraction = 1.0; // force bounded windows
    const FaultPlan plan = randomFaultPlan(cfg, 13);
    EXPECT_EQ(plan.events.size(), 7u);
    int slows = 0, flakies = 0, corrupts = 0;
    for (const FaultEvent &e : plan.events) {
        switch (e.kind) {
          case FaultKind::ChipSlow:
            ++slows;
            EXPECT_GT(e.factor, 1.0);
            EXPECT_GE(e.chip, 0);
            EXPECT_LT(e.chip, cfg.podChips);
            break;
          case FaultKind::LinkFlaky:
            ++flakies;
            EXPECT_GT(e.factor, 0.0);
            EXPECT_LT(e.factor, 1.0);
            EXPECT_GE(e.chip, 0);
            EXPECT_LT(e.chip, cfg.podChips);
            break;
          case FaultKind::PayloadCorrupt:
            ++corrupts;
            EXPECT_GT(e.factor, 0.0);
            EXPECT_LT(e.factor, 1.0);
            break;
          default:
            ADD_FAILURE() << "unexpected kind in gray plan";
        }
        EXPECT_GT(e.duration, 0u); // all transient windows
    }
    EXPECT_EQ(slows, 3);
    EXPECT_EQ(flakies, 2);
    EXPECT_EQ(corrupts, 2);
    FaultPlan parsed;
    std::string err;
    ASSERT_TRUE(parseFaultPlan(plan.str(), parsed, &err)) << err;
    EXPECT_EQ(plan, parsed);
}

// ------------------------------------------------------ Chip faults

TEST(ChipFault, HealthyMaskTracksFailuresAndRecoveries)
{
    arch::Chip chip{arch::HwConfig{}};
    const int tiles = chip.config().tiles();
    EXPECT_FALSE(chip.anyTileFailed());
    EXPECT_TRUE(chip.tileHealthy(0));
    EXPECT_EQ(static_cast<int>(chip.healthyTiles().size()), tiles);

    chip.failTile(5);
    chip.failTile(9);
    chip.failTile(9); // idempotent
    EXPECT_TRUE(chip.anyTileFailed());
    EXPECT_EQ(chip.failedTileCount(), 2);
    EXPECT_FALSE(chip.tileHealthy(5));
    EXPECT_TRUE(chip.tileHealthy(6));
    const auto healthy = chip.healthyTiles();
    EXPECT_EQ(static_cast<int>(healthy.size()), tiles - 2);
    EXPECT_TRUE(std::is_sorted(healthy.begin(), healthy.end()));
    EXPECT_FALSE(std::count(healthy.begin(), healthy.end(), 5));

    chip.recoverTile(5);
    chip.recoverTile(9);
    EXPECT_FALSE(chip.anyTileFailed());
    EXPECT_TRUE(chip.tileHealthy(5));
}

// ------------------------------------------------------- NoC faults

TEST(NocFault, LinkDownForcesDetourThatAvoidsTheLink)
{
    const arch::HwConfig hw;
    arch::Noc noc(hw);
    const TileId src = 0, dst = 3;
    const auto healthyRoute = noc.route(src, dst);
    EXPECT_EQ(static_cast<int>(healthyRoute.size()),
              noc.hops(src, dst));
    EXPECT_EQ(noc.detourRoutes(), 0u);

    // Take down the first link of the X-Y path (east out of tile 0).
    noc.setLinkDown(src, arch::kLinkEast, true);
    const auto detour = noc.route(src, dst);
    // route() is a pure query; only the messages sent count.
    EXPECT_EQ(noc.detourRoutes(), 0u);
    EXPECT_FALSE(detour.empty());
    EXPECT_NE(detour, healthyRoute);
    for (std::size_t link : detour)
        EXPECT_NE(link, healthyRoute.front()) << "route uses a dead link";

    // Transfers keep flowing over the detour; byte-hops bookkeeping
    // matches the route the message actually took.
    const Bytes before = noc.byteHopsServed();
    const auto t = noc.transfer(0, src, dst, 4096);
    EXPECT_GT(t.end, t.start);
    EXPECT_EQ(t.hops, static_cast<int>(detour.size()));
    EXPECT_EQ(noc.byteHopsServed() - before, t.byteHops);
    EXPECT_EQ(t.byteHops, 4096u * detour.size());
    EXPECT_EQ(noc.detourRoutes(), 1u);

    // Bringing the link back restores the X-Y fast path.
    noc.setLinkDown(src, arch::kLinkEast, false);
    EXPECT_EQ(noc.route(src, dst), healthyRoute);
}

TEST(NocFault, IsolatedTileFallsBackAndCounts)
{
    const arch::HwConfig hw;
    arch::Noc noc(hw);
    // Sever every link out of tile 0: no healthy route can exist.
    for (int dir = 0; dir < 4; ++dir)
        noc.setLinkDown(0, dir, true);
    // Its torus neighbours' inbound links too (links are directed).
    const TileId east = 1;
    const TileId west = hw.gridCols - 1;
    const TileId south = hw.gridCols;
    const TileId north = (hw.gridRows - 1) * hw.gridCols;
    noc.setLinkDown(east, arch::kLinkWest, true);
    noc.setLinkDown(west, arch::kLinkEast, true);
    noc.setLinkDown(south, arch::kLinkNorth, true);
    noc.setLinkDown(north, arch::kLinkSouth, true);

    const auto r = noc.route(0, 5);
    EXPECT_FALSE(r.empty()) << "unroutable pairs fall back to X-Y";
    EXPECT_EQ(noc.unroutablePaths(), 0u);
    noc.transfer(0, 0, 5, 4096);
    EXPECT_EQ(noc.unroutablePaths(), 1u);
    EXPECT_EQ(noc.detourRoutes(), 0u);
}

/** The detour counters count messages: a probe/ack only measures the
 * route, a transfer counts once, and a multicast once per distinct
 * destination. */
TEST(NocFault, CountsEachDetouredMessageOnce)
{
    const arch::HwConfig hw;
    arch::Noc noc(hw);
    noc.setLinkDown(0, arch::kLinkEast, true);

    noc.probeAck(0, 0, 3);
    EXPECT_EQ(noc.detourRoutes(), 0u);
    EXPECT_EQ(noc.unroutablePaths(), 0u);

    noc.transfer(0, 0, 3, 4096);
    EXPECT_EQ(noc.detourRoutes(), 1u);

    noc.multicast(0, 0, {3, 3, 3}, 4096);
    EXPECT_EQ(noc.detourRoutes(), 2u);
    EXPECT_EQ(noc.unroutablePaths(), 0u);
}

TEST(NocFault, DegradedLinkStretchesTransfers)
{
    const arch::HwConfig hw;
    arch::Noc full(hw), slow(hw);
    slow.setLinkBandwidthFactor(0, arch::kLinkEast, 0.25);
    EXPECT_EQ(slow.degradedLinks(), 1);
    const auto a = full.transfer(0, 0, 1, 1 << 20);
    const auto b = slow.transfer(0, 0, 1, 1 << 20);
    EXPECT_GT(b.end - b.start, a.end - a.start);
    // Restoring full bandwidth restores the exact healthy timing.
    arch::Noc restored(hw);
    restored.setLinkBandwidthFactor(0, arch::kLinkEast, 0.25);
    restored.setLinkBandwidthFactor(0, arch::kLinkEast, 1.0);
    EXPECT_EQ(restored.degradedLinks(), 0);
    const auto c = restored.transfer(0, 0, 1, 1 << 20);
    EXPECT_EQ(c.end - c.start, a.end - a.start);
}

TEST(NocFault, ProbeDropsRetryDeterministicallyAndGiveUp)
{
    const arch::HwConfig hw;
    const Tick base = arch::Noc(hw).probeAck(0, 0, 5);

    // Certain drops: every round trip fails, the retry budget runs
    // out, and the give-up penalty lands on top of the charged
    // timeouts. Two same-seeded NoCs agree exactly.
    arch::Noc a(hw), b(hw);
    a.setProbeDropWindow(1.0, 1'000'000'000, 42);
    b.setProbeDropWindow(1.0, 1'000'000'000, 42);
    const Tick ta = a.probeAck(0, 0, 5);
    const Tick tb = b.probeAck(0, 0, 5);
    EXPECT_EQ(ta, tb);
    EXPECT_GT(ta, base);
    EXPECT_EQ(a.probeGiveUps(), 1u);
    EXPECT_EQ(a.probeDrops(),
              static_cast<std::uint64_t>(hw.probeMaxRetries) + 1);
    EXPECT_EQ(a.probeRetries(),
              static_cast<std::uint64_t>(hw.probeMaxRetries));

    // Outside the window the fast path returns the healthy latency.
    arch::Noc c(hw);
    c.setProbeDropWindow(1.0, 10, 42);
    EXPECT_EQ(c.probeAck(10, 0, 5), base);
    EXPECT_EQ(c.probeDrops(), 0u);
}

// ---------------------------------------------------- FaultInjector

TEST(FaultInjector, AppliesStrikesAndHealsOnTheClock)
{
    FaultPlan plan;
    ASSERT_TRUE(parseFaultPlan(
        "tile_fail@100:tile=3,duration=200;"
        "link_down@150:tile=0,dir=E;"
        "store_fit_fail@400:duration=100",
        plan));
    FaultInjector inj(plan, 1);
    arch::Chip chip{arch::HwConfig{}};

    EXPECT_FALSE(inj.advanceTo(50, chip));
    EXPECT_TRUE(chip.tileHealthy(3));

    // Strike: the healthy set changed -> fail-over signal.
    EXPECT_TRUE(inj.advanceTo(100, chip));
    EXPECT_FALSE(chip.tileHealthy(3));
    EXPECT_FALSE(chip.noc().linkDown(0, arch::kLinkEast));

    // Link faults do not change the healthy-tile set.
    EXPECT_FALSE(inj.advanceTo(200, chip));
    EXPECT_TRUE(chip.noc().linkDown(0, arch::kLinkEast));

    // Heal: tile 3 recovers at 300 -> another fail-over signal.
    EXPECT_TRUE(inj.advanceTo(350, chip));
    EXPECT_TRUE(chip.tileHealthy(3));

    EXPECT_FALSE(inj.storeFitFailActive(350));
    EXPECT_FALSE(inj.advanceTo(450, chip));
    EXPECT_TRUE(inj.storeFitFailActive(450));
    EXPECT_FALSE(inj.storeFitFailActive(500));
    EXPECT_FALSE(inj.advanceTo(600, chip)); // past the heal entry
    EXPECT_TRUE(inj.exhausted());

    const FaultStats s = inj.stats(chip);
    EXPECT_EQ(s.tileFailEvents, 1u);
    EXPECT_EQ(s.tileRecoveries, 1u);
    EXPECT_EQ(s.linkDownEvents, 1u);
    EXPECT_EQ(s.storeFitWindows, 1u);
    EXPECT_EQ(s.failedTiles, 0);
    EXPECT_EQ(s.downLinks, 1);
}

// ------------------------------------------- degraded scheduling

TEST(SchedulerFault, DegradedBuildLandsOnSurvivorsOnly)
{
    const auto bundle = models::buildSkipNet(16);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);
    const arch::HwConfig hw;
    costmodel::Mapper mapper(hw.tech);
    core::Scheduler sched(dg, hw, mapper, core::SchedulerConfig{});

    const core::Schedule full = sched.build({}, {}, nullptr);

    std::vector<TileId> healthy;
    for (int t = 0; t < hw.tiles(); ++t)
        if (t % 7 != 0) // knock out every 7th tile
            healthy.push_back(static_cast<TileId>(t));
    sched.setHealthyTiles(healthy);
    EXPECT_EQ(sched.activeTileCount(),
              static_cast<int>(healthy.size()));

    const core::Schedule degraded = sched.build({}, {}, nullptr);
    const std::set<TileId> live(healthy.begin(), healthy.end());
    for (const auto &seg : degraded.segments)
        for (const auto &st : seg->stages) {
            EXPECT_FALSE(st.tiles.empty());
            for (TileId t : st.tiles)
                EXPECT_TRUE(live.count(t)) << "stage uses dead tile "
                                           << t;
        }

    // Clearing the mask restores the exact full-grid build.
    sched.setHealthyTiles({});
    EXPECT_EQ(sched.activeTileCount(), hw.tiles());
    const core::Schedule again = sched.build({}, {}, nullptr);
    ASSERT_EQ(again.segments.size(), full.segments.size());
    for (std::size_t i = 0; i < again.segments.size(); ++i) {
        ASSERT_EQ(again.segments[i]->stages.size(),
                  full.segments[i]->stages.size());
        for (std::size_t j = 0; j < again.segments[i]->stages.size();
             ++j)
            EXPECT_EQ(again.segments[i]->stages[j].tiles,
                      full.segments[i]->stages[j].tiles);
    }
}

// ------------------------------------------------- system-level runs

core::RunReport
faultedRun(baselines::Design design, const std::string &plan_text)
{
    const auto bundle = models::buildSkipNet(16);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 16;
    core::RunOptions opts;
    opts.numBatches = 60;
    opts.profileBatches = 10;
    opts.seed = 3;
    core::System sys(dg, tc, arch::HwConfig{},
                     baselines::schedulerConfig(design),
                     baselines::execPolicy(design), opts,
                     baselines::designName(design));
    kernels::KernelStoreCache stores;
    sys.setSharedStoreCache(&stores);
    if (!plan_text.empty()) {
        FaultPlan plan;
        EXPECT_TRUE(parseFaultPlan(plan_text, plan));
        sys.setFaultPlan(plan, 11);
    }
    return sys.run();
}

TEST(SystemFault, StaticBaselineEatsDegradedExecution)
{
    // The worst-case static design cannot fail over, so a dead tile
    // slows every batch that lands on its lockstep group.
    const auto clean = faultedRun(baselines::Design::MTile, "");
    const auto faulted =
        faultedRun(baselines::Design::MTile, "tile_fail@0:tile=0");
    EXPECT_EQ(faulted.failovers, 0);
    EXPECT_EQ(faulted.fault.tileFailEvents, 1u);
    EXPECT_EQ(faulted.fault.failedTiles, 1);
    EXPECT_GT(faulted.cycles, clean.cycles);
}

TEST(SystemFault, AdaptiveFailsOverAndRecoups)
{
    const auto faulted =
        faultedRun(baselines::Design::Adyna, "tile_fail@0:tile=0");
    EXPECT_EQ(faulted.failovers, 1);
    EXPECT_EQ(faulted.fault.failedTiles, 1);
    // The degraded re-schedule lands on survivors, so the run stays
    // within a modest factor of the clean one (vs the unbounded
    // lockstep penalty of serving dead tiles forever).
    const auto clean = faultedRun(baselines::Design::Adyna, "");
    EXPECT_LT(faulted.cycles, clean.cycles * 2);
}

TEST(SystemFault, NoSurvivorKeepsTheInstalledSchedule)
{
    // Tile 100 fails over; the later strike on every tile leaves no
    // survivor, so the run keeps its schedule rather than rebuilding
    // onto "the full grid" (what an empty tile list means).
    const auto faulted = faultedRun(
        baselines::Design::Adyna,
        test::everyTileDeadPlan(arch::HwConfig{}).str());
    EXPECT_EQ(faulted.failovers, 1);
    EXPECT_EQ(faulted.fault.failedTiles, arch::HwConfig{}.tiles());
}

TEST(SystemFault, EmptyPlanIsByteIdentical)
{
    const auto a = faultedRun(baselines::Design::Adyna, "");
    core::RunReport b;
    {
        const auto bundle = models::buildSkipNet(16);
        const graph::DynGraph dg = graph::parseModel(bundle.graph);
        trace::TraceConfig tc = bundle.traceConfig;
        tc.batchSize = 16;
        core::RunOptions opts;
        opts.numBatches = 60;
        opts.profileBatches = 10;
        opts.seed = 3;
        core::System sys(
            dg, tc, arch::HwConfig{},
            baselines::schedulerConfig(baselines::Design::Adyna),
            baselines::execPolicy(baselines::Design::Adyna), opts,
            baselines::designName(baselines::Design::Adyna));
        kernels::KernelStoreCache stores;
        sys.setSharedStoreCache(&stores);
        sys.setFaultPlan(FaultPlan{}, 99); // empty plan, odd seed
        b = sys.run();
    }
    EXPECT_EQ(core::toJson(a), core::toJson(b));
    EXPECT_EQ(core::toCsv({a}), core::toCsv({b}));
    EXPECT_EQ(a.failovers, b.failovers);
    EXPECT_EQ(a.fault, b.fault);
}

// ---------------------------------------------------- serve fail-over

struct ServeParams
{
    std::string planText;
    bool failover = true;
    bool admission = false;
    double ratePerSec = 5e5;
    Cycles watchdogBudget = 0;
    /** Trace drift override; negative keeps the model bundle's own
     * dynamism (drifting request mixes load more tile groups). */
    double driftStrength = 0.0;
    double deadlineMs = 1.0;
    int numRequests = 400;
    int windowRequests = 64;
};

serve::ServeReport
faultServe(const ServeParams &p)
{
    models::ModelBundle bundle = models::buildByName("skipnet", 8);
    const graph::DynGraph dg = graph::parseModel(bundle.graph);
    trace::TraceConfig tc = bundle.traceConfig;
    tc.batchSize = 8;
    if (p.driftStrength >= 0.0) {
        tc.driftStrength = p.driftStrength;
        tc.driftPeriod = 700;
    }

    serve::ServeConfig sc;
    sc.arrival.ratePerSec = p.ratePerSec;
    sc.batching.maxBatch = 8;
    sc.batching.maxWaitCycles = 20000;
    sc.slo.deadlineMs = p.deadlineMs;
    sc.drift.windowRequests = p.windowRequests;
    sc.numRequests = p.numRequests;
    sc.profileBatches = 8;
    sc.seed = 5;
    if (!p.planText.empty()) {
        FaultPlan plan;
        EXPECT_TRUE(parseFaultPlan(p.planText, plan));
        sc.faultPlan = plan;
    }
    sc.failover = p.failover;
    sc.admissionControl = p.admission;
    sc.rescheduleBudgetCycles = p.watchdogBudget;

    serve::ServeRuntime rt(
        dg, tc, arch::HwConfig{},
        baselines::schedulerConfig(baselines::Design::Adyna),
        baselines::execPolicy(baselines::Design::Adyna), sc,
        "skipnet");
    kernels::KernelStoreCache stores;
    rt.setSharedStoreCache(&stores);
    return rt.run();
}

TEST(ServeFault, FailoverReschedulesOntoSurvivors)
{
    // Tile 100 sits in a loaded lockstep group of this workload's
    // schedule, so the static response degrades hard while the
    // fail-over re-schedule recoups on the 143 survivors.
    ServeParams p;
    p.planText = "tile_fail@0:tile=100";
    p.ratePerSec = 2e5;
    p.deadlineMs = 8.0;
    p.driftStrength = -1.0; // the bundle's own drifting request mix

    const auto adaptive = faultServe(p);
    EXPECT_EQ(adaptive.failovers, 1);
    EXPECT_EQ(adaptive.failedTiles, 1);
    EXPECT_TRUE(adaptive.faultActive);
    EXPECT_EQ(adaptive.requests, 400u);

    p.failover = false;
    const auto fixed = faultServe(p);
    EXPECT_EQ(fixed.failovers, 0);
    EXPECT_EQ(fixed.failedTiles, 1);
    EXPECT_LT(adaptive.p99Ms, fixed.p99Ms);
    EXPECT_GT(adaptive.goodputRps, fixed.goodputRps);
    EXPECT_GT(adaptive.sloAttainment, fixed.sloAttainment);
}

TEST(ServeFault, AdmissionControlShedsUnderOverload)
{
    // Offered load far past capacity with a tight deadline: without
    // admission control the queue grows without bound; with it the
    // overflow is shed at arrival and the served stream stays live.
    ServeParams p;
    p.admission = true;
    p.ratePerSec = 5e6;
    const auto shed = faultServe(p);
    EXPECT_TRUE(shed.faultActive);
    EXPECT_GT(shed.shedRequests, 0u);
    EXPECT_EQ(shed.requests + shed.shedRequests, 400u);
    EXPECT_GT(shed.goodputRps, 0.0);

    p.admission = false;
    const auto drop = faultServe(p);
    EXPECT_EQ(drop.shedRequests, 0u);
    // Shedding keeps tail latency of the admitted stream bounded.
    EXPECT_LT(shed.p99Ms, drop.p99Ms);
}

TEST(ServeFault, WatchdogAbandonsOverBudgetRebuilds)
{
    // Strong distribution drift forces re-schedules; guard that
    // first, then cap the budget so every rebuild is abandoned.
    ServeParams p;
    p.driftStrength = 0.9;
    p.numRequests = 1600;
    p.windowRequests = 100;
    p.ratePerSec = 2e5;
    const auto open = faultServe(p);
    ASSERT_GT(open.reschedules, 0);
    EXPECT_EQ(open.watchdogFallbacks, 0);

    // A 1-cycle budget can never admit a rebuild: every drift
    // trigger falls back to the last-known-good schedule.
    p.watchdogBudget = 1;
    const auto capped = faultServe(p);
    EXPECT_TRUE(capped.faultActive);
    EXPECT_EQ(capped.reschedules, 0);
    EXPECT_GT(capped.watchdogFallbacks, 0);
}

TEST(ServeFault, EmptyPlanKeepsServeReportBytes)
{
    // Neither the fault knobs at their defaults nor an explicitly
    // empty plan may perturb a single byte of the report.
    ServeParams p;
    const auto plain = faultServe(p);
    p.failover = false;
    const auto fixed = faultServe(p);
    EXPECT_FALSE(plain.faultActive);
    EXPECT_EQ(serve::toJson(plain), serve::toJson(fixed));
    const std::string json = serve::toJson(plain);
    EXPECT_EQ(json.find("shed_requests"), std::string::npos);
    EXPECT_EQ(json.find("failovers"), std::string::npos);
}

// ------------------------------------------- pod-scope kinds rejected

/** One plan per pod-scope kind: only PodConfig::faultPlan takes
 * them. */
const char *const kPodScopePlans[] = {
    "chip_fail@1000:chip=0",
    "chip_slow@1000:chip=0,factor=2",
    "link_flaky@1000:chip=0,prob=0.5",
    "payload_corrupt@1000:prob=0.5",
};

TEST(FaultInjectorDeathTest, ServeRuntimeRejectsPodScopeKinds)
{
    for (const char *text : kPodScopePlans) {
        ServeParams p;
        p.planText = text;
        EXPECT_EXIT(faultServe(p), ::testing::ExitedWithCode(1),
                    "PodConfig::faultPlan")
            << text;
    }
}

TEST(FaultInjectorDeathTest, SystemRejectsPodScopeKinds)
{
    for (const char *text : kPodScopePlans)
        EXPECT_EXIT(faultedRun(baselines::Design::Adyna, text),
                    ::testing::ExitedWithCode(1), "PodConfig::faultPlan")
            << text;
}

} // namespace
